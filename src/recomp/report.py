"""Line-oriented result reports.

The structured format is versioned and diff-friendly: `key: value`
lines plus one `stage:` line per pipeline stage.  `parse_report` inverts
`render_report` on the stats fields exactly, so a benchmark harness can
round-trip stored runs.
"""

from __future__ import annotations

from .engine import Stage, StatsReport, Verdict
from .lts import fmt_label

REPORT_VERSION = 1


def _fmt_witness(witness):
    return "; ".join(lab if isinstance(lab, str) else fmt_label(lab)
                     for lab in witness)


def _opt(v):
    return "-" if v is None else str(v)


def render_report(verdict, stats):
    lines = ["report-version: %d" % REPORT_VERSION,
             "verdict: %s" % verdict.outcome]
    if verdict.reason is not None:
        lines.append("reason: %s" % verdict.reason)
    if verdict.witness is not None:
        lines.append("witness: %s" % _fmt_witness(verdict.witness))
    lines += [
        "strategy: %s" % (stats.strategy or "-"),
        "n: %d" % stats.n,
        "m: %d" % stats.m,
        "k: %d" % stats.k,
        "max-states: %d" % stats.max_states,
        "elapsed-ms: %d" % stats.elapsed_ms,
    ]
    for st in stats.stages:
        lines.append("stage: %s generated=%d minimized=%s composed=%s"
                     % (st.name, st.generated, _opt(st.minimized),
                        _opt(st.composed)))
    return "\n".join(lines) + "\n"


def parse_report(text):
    fields = {}
    stages = []
    for raw in text.splitlines():
        if not raw.strip():
            continue
        key, _, value = raw.partition(": ")
        if key == "stage":
            name, gen, mini, comp = value.split(" ")
            stages.append(Stage(
                name,
                int(gen.split("=", 1)[1]),
                _parse_opt(mini.split("=", 1)[1]),
                _parse_opt(comp.split("=", 1)[1]),
            ))
        else:
            fields[key] = value
    if int(fields["report-version"]) != REPORT_VERSION:
        raise ValueError("unsupported report version %s"
                         % fields["report-version"])
    witness = None
    if "witness" in fields:
        witness = tuple(fields["witness"].split("; ")) if fields["witness"] else ()
    verdict = Verdict(fields["verdict"], witness=witness,
                      reason=fields.get("reason"))
    strategy = fields["strategy"]
    stats = StatsReport(
        strategy="" if strategy == "-" else strategy,
        n=int(fields["n"]),
        m=int(fields["m"]),
        k=int(fields["k"]),
        stages=tuple(stages),
        max_states=int(fields["max-states"]),
        elapsed_ms=int(fields["elapsed-ms"]),
    )
    return verdict, stats


def _parse_opt(s):
    return None if s == "-" else int(s)


def render_text(verdict, stats, winner=None):
    """Human-readable summary."""
    out = ["verdict: %s" % verdict.outcome]
    if verdict.reason:
        out.append("reason: %s" % verdict.reason)
    if verdict.witness == ():
        out.append("counterexample: the initial state violates the property")
    elif verdict.witness is not None:
        out.append("counterexample:")
        for lab in verdict.witness:
            out.append("  %s" % (lab if isinstance(lab, str) else fmt_label(lab)))
    if winner is not None:
        out.append("winning strategy: %s" % winner.kind)
    elif stats.strategy:
        out.append("strategy: %s" % stats.strategy)
    out.append("components (n): %d   groups (m): %d   composed (k): %d"
               % (stats.n, stats.m, stats.k))
    out.append("max states: %d   elapsed: %d ms"
               % (stats.max_states, stats.elapsed_ms))
    if stats.stages:
        out.append("stages:")
        for st in stats.stages:
            out.append("  %-24s generated=%-9d minimized=%-9s composed=%s"
                       % (st.name, st.generated, _opt(st.minimized),
                          _opt(st.composed)))
    return "\n".join(out) + "\n"
