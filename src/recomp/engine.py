"""The verification engine.

`comp_verify` is compositional reachability analysis: build the error
LTS of the property group, then fold in one minimized group LTS at a
time, stopping as soon as the error state is unreachable.  `recomp_verify`
is the full pipeline (decompose, order, map, statically reduce, build
groups, verify).  `run_portfolio` races several strategies in separate
processes and returns the first conclusive answer.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, replace
from typing import Optional

from . import syntax as sx
from .decompose import decompose
from .lts import (Cancelled, StateBoundExceeded, compose, minimize,
                  pi_reachable, pi_trace)
from .order import Strategy, make_strategy, total_order
from .recompose import build_groups, static_reduce
from .semantics import DEFAULT_BOUND, err_lts, err_reach, to_lts

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    outcome: str
    witness: Optional[tuple] = None  # concrete action labels, for VIOLATED
    reason: Optional[str] = None  # for INCONCLUSIVE

    def conclusive(self):
        return self.outcome in (HOLDS, VIOLATED)


@dataclass(frozen=True)
class Stage:
    name: str
    generated: int
    minimized: Optional[int] = None
    composed: Optional[int] = None


@dataclass(frozen=True)
class StatsReport:
    strategy: str
    n: int
    m: int
    k: int
    stages: tuple
    max_states: int
    elapsed_ms: int


def comp_verify(d_p, groups, prop, bound=None, minimize_mode="strong",
                cancel=None):
    """Iterative compose-and-check over the property group and the
    ordered groups; Holds as soon as pi is unreachable (k groups used),
    Violated if it stays reachable through all of them."""
    bound = bound or DEFAULT_BOUND
    t0 = time.monotonic()
    stages = []
    max_states = 0
    k_done = 0

    def report(verdict, k):
        ms = int((time.monotonic() - t0) * 1000)
        stats = StatsReport(strategy="", n=0, m=len(groups), k=k,
                            stages=tuple(stages), max_states=max_states,
                            elapsed_ms=ms)
        return verdict, stats

    try:
        if not groups:
            # Monolithic: search only up to the first violating state.
            violated, count, trace = err_reach(d_p, prop, bound, cancel)
            stages.append(Stage(d_p.name, count))
            max_states = count
            if violated:
                return report(Verdict(VIOLATED, witness=trace), 0)
            return report(Verdict(HOLDS), 0)

        remaining_alpha = [sx.symbolic_actions(g) for g in groups]
        d = err_lts(d_p, prop, bound, cancel)
        gen = d.n_states
        max_states = gen
        if not pi_reachable(d):
            stages.append(Stage(d_p.name, gen))
            return report(Verdict(HOLDS), 0)
        d = _minimized(d, minimize_mode, set().union(*remaining_alpha),
                       cancel)
        stages.append(Stage(d_p.name, gen, minimized=d.n_states))

        composed_alpha = set(sx.symbolic_actions(d_p))
        for j, g in enumerate(groups):
            gl = to_lts(g, bound, cancel)
            gen = gl.n_states
            # labels only this group uses, never needed again, may be hidden
            visible = set(composed_alpha)
            for alpha in remaining_alpha[j + 1:]:
                visible |= alpha
            gm = _minimized(gl, minimize_mode, visible, cancel)
            d = compose(d, gm, bound=bound, cancel=cancel)
            k_done = j + 1
            composed_alpha |= remaining_alpha[j]
            stages.append(Stage(g.name, gen, minimized=gm.n_states,
                                composed=d.n_states))
            max_states = max(max_states, gen, d.n_states)
            if not pi_reachable(d):
                return report(Verdict(HOLDS), k_done)
        return report(Verdict(VIOLATED, witness=pi_trace(d)), k_done)
    except StateBoundExceeded:
        return report(Verdict(INCONCLUSIVE, reason="bound-exceeded"), k_done)
    except Cancelled:
        return report(Verdict(INCONCLUSIVE, reason="cancelled"), k_done)


def _minimized(l, mode, visible_actions, cancel):
    if mode == "strong":
        return minimize(l, "strong", cancel=cancel)
    hide = {lab for lab in l.alphabet if lab[0] not in visible_actions}
    return minimize(l, "observational", hide=hide, cancel=cancel)


def recomp_verify(spec, prop, strategy, bound=None, minimize_mode="strong",
                  cancel=None, reduce=True):
    """Decompose, order, map, statically reduce, build groups, verify."""
    if isinstance(strategy, str):
        strategy = Strategy(strategy)
    comps = decompose(spec, prop)
    perm = total_order(comps, spec)
    comps = [comps[i - 1] for i in perm]
    n = len(comps)
    if strategy.custom is not None:
        f = strategy.custom
    else:
        f = make_strategy(strategy.kind, n)
    # S4 is the whole-system backstop: it checks the spec exactly as
    # written, so component dropping does not apply to it.
    if reduce and strategy.kind != "S4":
        f = static_reduce(f, comps)
    d_p, groups = build_groups(f, comps)
    verdict, stats = comp_verify(d_p, groups, prop, bound=bound,
                                 minimize_mode=minimize_mode, cancel=cancel)
    return verdict, replace(stats, strategy=strategy.label(), n=n, m=f.m)


def _portfolio_worker(spec, prop, strategy, bound, minimize_mode, reduce,
                      cancel, conn):
    try:
        verdict, stats = recomp_verify(spec, prop, strategy, bound=bound,
                                       minimize_mode=minimize_mode,
                                       cancel=cancel, reduce=reduce)
    except Exception as exc:  # report, don't wedge the coordinator
        verdict = Verdict(INCONCLUSIVE, reason="error: %s" % exc)
        stats = replace(_empty_stats(), strategy=strategy.label())
    conn.send((verdict, stats))


def run_portfolio(spec, prop, strategies, workers=4, timeout=None,
                  bound=None, minimize_mode="strong", reduce=True):
    """Race the strategies; first conclusive verdict wins, losers are
    cancelled cooperatively.  A worker that exits without a result is
    an inconclusive outcome.  Returns (verdict, stats, winning strategy)."""
    # imported here: it costs in-process checks about 0.5 MB of RSS
    from multiprocessing.connection import wait
    strategies = [Strategy(s) if isinstance(s, str) else s for s in strategies]
    if not strategies:
        raise ValueError("need at least one strategy")
    ctx = multiprocessing.get_context()
    cancel = ctx.Event()
    deadline = None if timeout is None else time.monotonic() + timeout

    procs = {}  # strategy index -> (process, result pipe)
    pending = list(enumerate(strategies))

    def launch():
        while pending and len(procs) < max(1, workers):
            idx, strat = pending.pop(0)
            reader, writer = ctx.Pipe(duplex=False)
            p = ctx.Process(target=_portfolio_worker,
                            args=(spec, prop, strat, bound, minimize_mode,
                                  reduce, cancel, writer))
            p.daemon = True
            p.start()
            writer.close()
            procs[idx] = (p, reader)

    def outcome(idx):
        """The worker's posted result or, if it exited without one, an
        inconclusive outcome naming its exit code."""
        p, reader = procs.pop(idx)
        try:
            if reader.poll():
                return reader.recv()
        except EOFError:  # the pipe closed without a result
            pass
        finally:
            reader.close()
            p.join()
        reason = "%s exited with code %s" % (strategies[idx].label(),
                                             p.exitcode)
        return Verdict(INCONCLUSIVE, reason=reason), _empty_stats()

    def shutdown():
        cancel.set()
        for p, _ in procs.values():
            p.join(timeout=10)
        for p, reader in procs.values():
            if p.is_alive():
                p.terminate()
                p.join()
            reader.close()

    launch()
    reasons = set()
    fallback = None
    try:
        while procs:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return (Verdict(INCONCLUSIVE, reason="timeout"),
                            _empty_stats(), None)
            owner = {}
            for idx, (p, reader) in procs.items():
                owner[reader] = owner[p.sentinel] = idx
            ready = wait(list(owner), remaining)
            if not ready:
                return (Verdict(INCONCLUSIVE, reason="timeout"),
                        _empty_stats(), None)
            for idx in sorted({owner[r] for r in ready}):
                verdict, stats = outcome(idx)
                if verdict.conclusive():
                    return verdict, stats, strategies[idx]
                reasons.add(verdict.reason or "unknown")
                if fallback is None:
                    fallback = stats
            launch()
    finally:
        shutdown()
    verdict = Verdict(INCONCLUSIVE, reason=", ".join(sorted(reasons)))
    return verdict, fallback or _empty_stats(), None


def _empty_stats():
    return StatsReport(strategy="", n=0, m=0, k=0, stages=(),
                       max_states=0, elapsed_ms=0)
