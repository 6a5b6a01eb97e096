"""Line-oriented result reports.

The structured format is versioned and diff-friendly: `key: value`
lines plus one `stage:` line per pipeline stage.  The text format is a
summary for people.  A witness is a sequence of `(action, argument)`
labels.
"""

from __future__ import annotations

from .lts import fmt_label

REPORT_VERSION = 1


def _opt(v):
    return "-" if v is None else str(v)


def render_report(verdict, stats):
    lines = ["report-version: %d" % REPORT_VERSION,
             "verdict: %s" % verdict.outcome]
    if verdict.reason is not None:
        lines.append("reason: %s" % verdict.reason)
    if verdict.witness is not None:
        lines.append("witness: %s"
                     % "; ".join(map(fmt_label, verdict.witness)))
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
            out.append("  %s" % fmt_label(lab))
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
