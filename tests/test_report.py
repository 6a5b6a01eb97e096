from recomp.engine import Stage, StatsReport, Verdict
from recomp.report import render_report, render_text


def _stats(**kw):
    base = dict(strategy="S2", n=4, m=1, k=1,
                stages=(Stage("D_P", 288, 93, None),
                        Stage("G1", 64, 12, 130)),
                max_states=288, elapsed_ms=41)
    base.update(kw)
    return StatsReport(**base)


def test_report_lists_the_stats_fields():
    text = render_report(Verdict("holds"), _stats())
    assert text == ("report-version: 1\n"
                    "verdict: holds\n"
                    "strategy: S2\n"
                    "n: 4\n"
                    "m: 1\n"
                    "k: 1\n"
                    "max-states: 288\n"
                    "elapsed-ms: 41\n"
                    "stage: D_P generated=288 minimized=93 composed=-\n"
                    "stage: G1 generated=64 minimized=12 composed=130\n")


def test_report_lists_the_witness_labels():
    verdict = Verdict("violated", witness=(("SndPrepare", ("str", "rm1")),
                                           ("RcvPrepare", ("str", "rm1"))))
    lines = render_report(verdict, _stats()).splitlines()
    assert lines[:3] == ["report-version: 1", "verdict: violated",
                         'witness: SndPrepare("rm1"); RcvPrepare("rm1")']


def test_report_of_an_initial_violation_has_an_empty_witness():
    lines = render_report(Verdict("violated", witness=()),
                          _stats()).splitlines()
    assert "witness: " in lines


def test_report_gives_the_reason_and_no_strategy_as_dash():
    verdict = Verdict("inconclusive", reason="bound-exceeded")
    lines = render_report(verdict, _stats(strategy="")).splitlines()
    assert lines[:4] == ["report-version: 1", "verdict: inconclusive",
                         "reason: bound-exceeded", "strategy: -"]


def test_stage_lines_mark_missing_fields():
    stats = _stats(stages=(Stage("only", 10, None, None),))
    lines = render_report(Verdict("holds"), stats).splitlines()
    assert lines[-1] == "stage: only generated=10 minimized=- composed=-"


def test_text_rendering_mentions_the_essentials():
    verdict = Verdict("violated", witness=(("SndPrepare", ("str", "rm1")),))
    text = render_text(verdict, _stats())
    assert "violated" in text
    assert "counterexample" in text
    assert 'SndPrepare("rm1")' in text
    assert "max states: 288" in text
