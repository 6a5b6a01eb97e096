"""Self-tests of the benchmark: the correctness gate, the metric printer,
span accounting and seed invariance.

    python3 -m pytest -q perfbench/tests

The seed-invariance test runs every in-process check list once per
seed, about a minute in all.
"""

import json
import random
import sys
import time
from dataclasses import astuple, replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = tuple(wl.Check("twophase", 3, prop, kind)
             for prop in ("Consistent", "NoPrepares")
             for kind in wl.PORTFOLIO)


def _benchmark_json():
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_gate_fails_a_planted_wrong_answer():
    planted = wl.Check("twophase", 3, "Consistent", "S1",
                       expected=wl.VIOLATED)
    result, _, failures = run.run_workload((planted,), 1, 0.01, False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert "expected violated" in failures[0]


def test_gate_fails_a_counterexample_that_does_not_replay():
    check = wl.Check("twophase", 3, "NoPrepares", "S1")
    program, specs, _, _ = run.set_up((check,), 1)
    oracle = program.load_oracle()
    good = run.run_check(program, specs[check.spec_key], check,
                         run.Deadline(60))
    assert run.failure(oracle, specs, good, {}) is None
    cut = replace(good, verdict=replace(good.verdict,
                                        witness=good.verdict.witness[:-1]))
    assert "does not replay" in run.failure(oracle, specs, cut, {})


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"),
                                           (True, "per_layer")])
def test_printer_reports_every_named_metric_with_its_unit(
        trace, section, capsys):
    result, passes, failures = run.run_workload(TINY, 1, 0.01, trace)
    run.emit(result, passes, failures)
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed["correct"] and printed["failed"] == 0
    assert printed["attempted"] >= len(TINY)
    named = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    assert {k: v["unit"] for k, v in printed["metrics"].items()} == named
    for m in printed["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_end_to_end_timings_are_scaled_by_the_speed_reference():
    assert run.scale(run.REFERENCE_S, run.REFERENCE_S) == 1.0
    assert run.scale(run.REFERENCE_S, 3 * run.REFERENCE_S) == 0.5
    result, passes, _ = run.run_workload(TINY[:1], 1, 0.01, False)
    (p,) = passes
    (r,) = p.results
    assert r.scale != 1.0
    assert r.ref_seconds == pytest.approx(r.seconds * r.scale)
    assert result["metrics"]["verdict_s"]["value"] == p.ref_seconds
    assert result["metrics"]["check_s.p50"]["value"] == r.ref_seconds


def test_self_times_add_up_to_the_root_spans():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    inner = tracer.wrap("inner", lambda: [leaf() for _ in range(2)])
    leaf_t = tracer.wrap("leaf", leaf)
    root = tracer.wrap("root", lambda: (inner(), leaf_t(), inner()))
    root()
    st = tracer.self_times()
    name, start, end, parent, _ = tracer.spans[0]
    assert name == "root" and parent is None
    assert sum(st.values()) == pytest.approx(end - start, abs=1e-9)
    assert st["leaf"] >= 0.002 and st["inner"] >= 0.008


def test_renaming_replaces_every_config_constant():
    text = run.Program().corpus.twophase(4)
    renamed = wl.rename_constants(text, random.Random(7))
    assert renamed != text
    assert all('"rm%d"' % i not in renamed for i in range(1, 5))
    assert renamed == wl.rename_constants(text, random.Random(7))


def _fingerprint(checks, seed):
    program, specs, _, _ = run.set_up(checks, seed)
    p = run.run_pass(program, specs, list(checks), run.Deadline(120), False)
    # plain tuples: each set-up imports recomp afresh, and dataclass
    # instances of two imports never compare equal
    return {r.check.label: (r.verdict.outcome, r.stats.n, r.stats.m,
                            r.stats.k, r.stats.max_states,
                            tuple(astuple(s) for s in r.stats.stages))
            for r in p.results}


@pytest.mark.parametrize("workload", ["compose", "monolithic",
                                      "observational"])
def test_seeds_change_no_verdict_or_stage_count(workload):
    checks = wl.WORKLOADS[workload]
    first = _fingerprint(checks, 1)
    assert {label: f[0] for label, f in first.items()} == {
        c.label: c.expected for c in checks}
    assert _fingerprint(checks, 2) == first
