"""The verification engine.

`comp_verify` is compositional reachability analysis: build the error
LTS of the property group, then fold in one minimized group LTS at a
time, stopping as soon as the error state is unreachable.  Every stage
follows one rule: minimize after hiding and, if a label was hidden,
determinize, since only visible traces, and which of them reach the
error state, decide the verdict.  The minimization mode decides only
what is hidden: in observational mode, the actions no other group
needs; in strong mode, nothing.  The running composite is kept as the
operands folded since its last reduction, and built (`compose`) only
where a stage reduces it, because it hides a label, or at the last
group; any other stage only asks whether the error state is reachable,
which a depth-first search of the operands' product answers
(`pi_reachable`).  The last group is searched rather than built:
nothing after it uses its reduction, so `compose` searches its product
with the operands over the group's compiled successors
(`semantics.unbuilt`) up to the first step into the error state, and
only if that search outgrows the group, or the bound, is the group
built, reduced and composed like the others.  Under a tracer of the
engine's names, the searched group's enumeration is timed as
`compose`, not `to_lts`; a build after the search gives up is timed as
`to_lts`.
`recomp_verify` is the full pipeline (decompose, order, map, statically
reduce, build groups, verify); under S4 it checks the parsed spec
itself.  `run_portfolio` races several strategies in separate
processes and returns the first conclusive answer.  With fewer workers
than strategies the first wave decides the race, so under symmetry S4,
the reduced whole-system search, starts second, directly behind the
caller's first strategy (`_launch_order`).  The worker processes are
started on first use and persist across `run_portfolio` calls in one
process; the losers of a race finish cancelling in the background while
the caller goes on.  The workers are daemonic, so multiprocessing stops
them when the interpreter exits.  `multiprocessing` itself is imported on
the pool's first use, so in-process checks never load it.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

from . import syntax as sx
from .decompose import component_blocks, decompose
from .lts import (Cancelled, StateBoundExceeded, compose, determinize,
                  is_tau, minimize, pi_reachable, pi_trace)
from .order import Strategy, make_strategy, total_order
from .recompose import build_groups, static_reduce
from .semantics import (err_lts, err_reach, state_bound, symmetric_sets,
                        to_lts, unbuilt)

# the values of `minimize_mode`
MINIMIZE_MODES = ("strong", "observational")

# seconds: the pool waits for its workers with poll(), which takes at
# most 2**31 - 1 milliseconds
MAX_TIMEOUT = 2_147_483

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
    """One group's sizes: `generated` as built, `minimized` after
    reduction (in observational mode possibly determinized), and
    `composed` the product with the running composite before any
    reduction of it, which is what `max_states` counts.  A stage before
    the last whose composite hides no label is searched, not built:
    `composed` is then the product states the depth-first search
    visited, all of them if the error state is unreachable.

    A last group that is searched, not built, has `generated` the group
    states the search reached (the targets of the group's steps it
    read), `minimized` None, and `composed` the product searched;
    `max_states` counts only the product.  A search that gives up, past
    its budget or the bound, is not reported: the stage is the group as
    built after it."""

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
    Violated if it stays reachable through all of them.  The composite
    is the product of the operands folded since its last reduction: a
    stage before the last that hides nothing searches that product to pi
    (`lts.pi_reachable`), one that hides a label builds and reduces it.
    The last group is searched in the product, not built, unless the
    search outgrows it or the bound (`lts.compose`).  A run that exceeds
    the bound ends with the stage it was building or searching, its
    count at the bound, and a cancelled run with the stages it finished.
    A bound below 1 raises `ValueError`."""
    _check_mode(minimize_mode)
    bound = state_bound(bound)
    observational = minimize_mode == "observational"

    def hidden(alphabet, visible_actions):
        """What a stage hides: in observational mode, the labels, tau
        aside, whose action is not in visible_actions; in strong mode,
        nothing."""
        if not observational:
            return set()
        return {lab for lab in alphabet
                if not is_tau(lab) and lab[0] not in visible_actions}

    t0 = time.monotonic()
    stages = []
    max_states = 0
    k_done = 0
    building = None  # the Stage under construction, given its count

    def report(verdict, k):
        ms = int((time.monotonic() - t0) * 1000)
        stats = StatsReport(strategy="", n=0, m=len(groups), k=k,
                            stages=tuple(stages), max_states=max_states,
                            elapsed_ms=ms)
        return verdict, stats

    try:
        if not groups:
            # Monolithic: search only up to the first violating state.
            building = partial(Stage, d_p.name)
            violated, count, trace = err_reach(d_p, prop, bound, cancel)
            stages.append(Stage(d_p.name, count))
            max_states = count
            if violated:
                return report(Verdict(VIOLATED, witness=trace), 0)
            return report(Verdict(HOLDS), 0)

        remaining_alpha = [sx.symbolic_actions(g) for g in groups]
        building = partial(Stage, d_p.name)
        d = err_lts(d_p, prop, bound, cancel)
        gen = d.n_states
        max_states = gen
        if d.pi is None:
            stages.append(Stage(d_p.name, gen))
            return report(Verdict(HOLDS), 0)
        d = _reduced(d, hidden(d.alphabet, set().union(*remaining_alpha)),
                     cancel)
        stages.append(Stage(d_p.name, gen, minimized=d.n_states))

        # the running composite: the product of these, built only where
        # a stage reduces it
        operands = [d]
        composed_alpha = set(sx.symbolic_actions(d_p))
        for j, g in enumerate(groups):
            building = partial(Stage, g.name)
            last = j + 1 == len(groups)
            if not last:
                gl = to_lts(g, bound, cancel)
            else:
                with unbuilt(g) as src:
                    product = compose(*operands, src, bound=bound,
                                      cancel=cancel)
                    if product is not None:
                        k_done = j + 1
                        stages.append(Stage(g.name, src.n_states,
                                            composed=product.n_states))
                        max_states = max(max_states, product.n_states)
                        if product.pi is None:
                            return report(Verdict(HOLDS), k_done)
                        return report(Verdict(
                            VIOLATED, witness=pi_trace(product)), k_done)
                    # the search outgrew the group or the bound
                    gl = to_lts(src, bound, cancel)
            gen = gl.n_states
            # labels only this group uses, never needed again, may be hidden
            later = set().union(*remaining_alpha[j + 1:])
            gm = _reduced(gl, hidden(gl.alphabet, composed_alpha | later),
                          cancel)
            building = partial(Stage, g.name, gen, gm.n_states)
            operands.append(gm)
            k_done = j + 1
            composed_alpha |= remaining_alpha[j]
            # the composite's labels that no later group names
            hide = hidden(set().union(*(o.alphabet for o in operands)), later)
            if last or hide:
                d = compose(*operands, bound=bound, cancel=cancel)
                reached, count = d.pi is not None, d.n_states
            else:
                reached, count = pi_reachable(*operands, bound=bound,
                                              cancel=cancel)
            stages.append(Stage(g.name, gen, minimized=gm.n_states,
                                composed=count))
            max_states = max(max_states, gen, count)
            if not reached:
                return report(Verdict(HOLDS), k_done)
            if last:
                return report(Verdict(VIOLATED, witness=pi_trace(d)), k_done)
            if hide:
                operands = [_reduced(d, hide, cancel)]
    except StateBoundExceeded as exc:
        stages.append(building(exc.bound))
        max_states = max(max_states, exc.bound)
        return report(Verdict(INCONCLUSIVE, reason="bound-exceeded"), k_done)
    except Cancelled:
        return report(Verdict(INCONCLUSIVE, reason="cancelled"), k_done)


def _check_mode(minimize_mode):
    if minimize_mode not in MINIMIZE_MODES:
        raise ValueError("unknown minimization mode %r" % (minimize_mode,))


def _reduced(l, hide, cancel):
    """The quotient of l after hiding `hide`, then, if that hid a label,
    determinized: only visible traces and which of them reach pi decide
    a product's verdict."""
    m = minimize(l, hide, cancel=cancel)
    return determinize(m, cancel) if hide else m


def ordered_components(spec, prop):
    """The spec's components in total order."""
    comps = decompose(spec, prop)
    return [comps[i - 1] for i in total_order(comps, spec)]


def recomp_verify(spec, prop, strategy, bound=None, minimize_mode="strong",
                  cancel=None):
    """Decompose, order, map, statically reduce, build groups, verify.
    S4, the whole-system search, checks the parsed spec and only counts
    its components."""
    if isinstance(strategy, str):
        strategy = Strategy(strategy)
    if strategy.kind == "S4":
        n = len(component_blocks(spec, prop))
        d_p, groups = spec, []
    else:
        comps = ordered_components(spec, prop)
        n = len(comps)
        f = strategy.custom or make_strategy(strategy.kind, n)
        d_p, groups = build_groups(static_reduce(f, comps), comps, spec)
    verdict, stats = comp_verify(d_p, groups, prop, bound=bound,
                                 minimize_mode=minimize_mode, cancel=cancel)
    return verdict, replace(stats, strategy=strategy.kind, n=n)


def run_portfolio(spec, prop, strategies, workers=4, timeout=None,
                  bound=None, minimize_mode="strong"):
    """Race the strategies on the worker pool; the first conclusive
    verdict wins, and losers are cancelled cooperatively and finish in
    the background.  At most `workers` run at once, and the next starts
    when one ends inconclusive, in the order `_launch_order` gives: the
    caller's, except that S4 starts second under symmetry when there are
    fewer workers than strategies.  A worker that exits without a result
    is an inconclusive outcome.  Concurrent calls take turns.  A timeout must
    lie in (0, `MAX_TIMEOUT`] seconds, the bound and the worker count
    must be at least 1, the mode must be one of `MINIMIZE_MODES`, and a
    custom map must cover the spec's components exactly once: each
    raises before any worker starts.  Returns (verdict, stats, winning
    strategy)."""
    # NaN fails both comparisons
    if timeout is not None and not 0 < timeout <= MAX_TIMEOUT:
        raise ValueError("timeout must be above 0 and at most %d seconds"
                         % MAX_TIMEOUT)
    bound = state_bound(bound)
    if workers < 1:
        raise ValueError("workers must be at least 1")
    _check_mode(minimize_mode)
    strategies = [Strategy(s) if isinstance(s, str) else s for s in strategies]
    if not strategies:
        raise ValueError("need at least one strategy")
    # a map that does not fit the components raises here, not in a worker
    custom = [s.custom for s in strategies if s.custom is not None]
    if custom:
        comps = decompose(spec, prop)
        for f in custom:
            static_reduce(f, comps)
    strategies = _launch_order(spec, prop, strategies, workers)
    deadline = None if timeout is None else time.monotonic() + timeout
    # a call that waits for another thread's race spends its own timeout
    if not _POOL.lock.acquire(timeout=-1 if timeout is None else timeout):
        return _timed_out()
    try:
        return _POOL.race((spec, prop, bound, minimize_mode),
                          strategies, workers, deadline)
    finally:
        _POOL.lock.release()


def _launch_order(spec, prop, strategies, workers):
    """The strategies in the order the pool starts them, as a new list.
    With fewer workers than strategies and a symmetric set in the check,
    S4 moves to second place, directly behind the caller's first
    strategy: its search of one state per orbit is the fastest plan on
    every symmetric check of the corpus, but it never finishes on a spec
    with an unbounded counter, which the first strategy may decide at
    once.  Otherwise the order is the caller's."""
    i = next((i for i, s in enumerate(strategies) if s.kind == "S4"), 0)
    if i < 2 or workers >= len(strategies) or not symmetric_sets(spec, prop):
        return list(strategies)
    return ([strategies[0], strategies[i]] + strategies[1:i]
            + strategies[i + 1:])


# Seconds a worker may take, after its race has ended, to post its
# result before it is terminated and replaced.
_ACK_WAIT = 10


class _Worker:
    """A pool process, the coordinator's end of its pipe, the id of the
    race it is running (None while idle), and when that race ended."""

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.race = None
        self.ended = None


class _Pool:
    """Worker processes forked on first use and reused across races.

    Races are numbered from 1.  `finished`, a counter in shared memory,
    holds the id of the last race that returned, so a worker's cancel
    token for race r is set once `finished` reaches r (see
    `_RaceCancel`).  The coordinator does not wait for a race's losers:
    the next race first collects their results, which it drops.
    """

    def __init__(self):
        self.lock = threading.Lock()  # held for a whole race
        self.workers = []
        self.finished = None  # created by the first race
        self.races = 0

    def race(self, job, strategies, workers, deadline):
        if not self._settle(deadline):
            return _timed_out()
        if self.finished is None:  # the first race since the pool started
            self.finished = _shared_counter(_multiprocessing().get_context(),
                                            self.races)
        self.races += 1
        race = self.races
        spec, prop, bound, minimize_mode = job
        running = {}  # worker -> strategy index
        pending = list(enumerate(strategies))

        def launch():
            idle = [w for w in self.workers if w.race is None]
            while pending and len(running) < workers:
                w = idle.pop() if idle else self._fork()
                idx, strat = pending.pop(0)
                w.race = race
                running[w] = idx
                try:
                    w.conn.send((race, spec, prop, strat, bound,
                                 minimize_mode))
                except OSError:  # it died: wait() sees its sentinel
                    pass

        reasons = set()
        fallback = None
        try:
            launch()
            while running:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return _timed_out()
                ready = _ready(running, remaining)
                if not ready:
                    return _timed_out()
                for w in sorted(ready, key=running.get):
                    strat = strategies[running.pop(w)]
                    result = self._result(w)
                    if result is None:
                        reason = "%s exited with code %s" % (
                            strat.kind, w.process.exitcode)
                        verdict = Verdict(INCONCLUSIVE, reason=reason)
                        stats = _empty_stats()
                    else:
                        _, verdict, stats = result
                    if verdict.conclusive():
                        return verdict, stats, strat
                    reasons.add(verdict.reason or "unknown")
                    if fallback is None:
                        fallback = stats
                launch()
        finally:
            self.finished[0] = race
            ended = time.monotonic()
            for w in running:
                w.ended = ended
        verdict = Verdict(INCONCLUSIVE, reason=", ".join(sorted(reasons)))
        return verdict, fallback or _empty_stats(), None

    def _settle(self, deadline):
        """Make every worker idle: drop the results of earlier races'
        losers once they post them, and replace workers that died or that
        have not answered `_ACK_WAIT` seconds after their race ended.
        False if the deadline passes first; the workers still busy are
        then left for the next race."""
        busy = [w for w in self.workers if w.race is not None]
        while busy:
            until = min(w.ended for w in busy) + _ACK_WAIT
            if deadline is not None:
                until = min(until, deadline)
            ready = _ready(busy, max(0.0, until - time.monotonic()))
            for w in ready:
                self._result(w)
            now = time.monotonic()
            for w in busy:
                if w not in ready and w.ended + _ACK_WAIT <= now:
                    self._replace(w)
            busy = [w for w in self.workers if w.race is not None]
            if busy and deadline is not None and now >= deadline:
                return False
        for w in list(self.workers):
            if not w.process.is_alive():
                self._replace(w)
        return True

    def _result(self, w):
        """The (race id, verdict, stats) that w posted, after which it is
        idle; or None if it exited without one, after which it is
        replaced.  Call once w's pipe or sentinel is ready."""
        try:
            if w.conn.poll():
                result = w.conn.recv()
                w.race = None
                return result
        except (EOFError, OSError):  # the pipe closed without a result
            pass
        self._replace(w)
        return None

    def _fork(self):
        """A new idle worker.  The context comes from the
        `multiprocessing` name at each call, so that a stand-in module
        there sees every process started."""
        ctx = _multiprocessing().get_context()
        conn, child_conn = ctx.Pipe()
        # a forked child closes its copies of the coordinator's ends, so
        # that each worker sees end of file once the coordinator has gone
        inherited = []
        if ctx.get_start_method() == "fork":
            inherited = [w.conn for w in self.workers] + [conn]
        p = ctx.Process(target=_pool_worker, daemon=True,
                        args=(child_conn, self.finished, inherited))
        p.start()
        child_conn.close()
        w = _Worker(p, conn)
        self.workers.append(w)
        return w

    def _replace(self, w):
        """Stop w and fork an idle worker in its place."""
        self.workers.remove(w)
        w.process.terminate()
        w.process.join()
        w.conn.close()
        self._fork()

    def close(self):
        """Stop every worker; the next race starts new ones, with a new
        counter for the context it finds then."""
        for w in self.workers:
            w.process.terminate()
        for w in self.workers:
            w.process.join()
            w.conn.close()
        self.workers = []
        self.finished = None


def __getattr__(name):
    """The engine's `multiprocessing`, imported on first use; from then
    on, or once a stand-in is set there, it is a plain global."""
    if name != "multiprocessing":
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    import multiprocessing
    globals()["multiprocessing"] = multiprocessing
    return multiprocessing


def _multiprocessing():
    """The engine's `multiprocessing` attribute, read at each use."""
    return sys.modules[__name__].multiprocessing


def _shared_counter(ctx, value):
    """A one-slot integer array in memory shared with the workers that
    ctx starts."""
    if ctx.get_start_method() == "fork":
        # an anonymous mapping is inherited by the workers forked later;
        # a RawArray would import ctypes, 8 ms on a first race
        import mmap
        counter = memoryview(mmap.mmap(-1, 8)).cast("q")
    else:  # spawned workers unpickle their arguments, and a mapping can't
        counter = ctx.RawArray("q", 1)
    counter[0] = value
    return counter


def _ready(workers, timeout):
    """The workers whose pipe or sentinel becomes ready within timeout
    seconds (None: no limit)."""
    # imported here: it costs in-process checks about 0.5 MB of RSS
    from multiprocessing.connection import wait
    owner = {}
    for w in workers:
        owner[w.conn] = owner[w.process.sentinel] = w
    return {owner[r] for r in wait(list(owner), timeout)}


class _RaceCancel:
    """A worker's cancel token for one race: set once the coordinator's
    count of finished races reaches it, so a poll reads shared memory
    and makes no system call."""

    __slots__ = ("finished", "race")

    def __init__(self, finished, race):
        self.finished = finished
        self.race = race

    def is_set(self):
        return self.finished[0] >= self.race


def _pool_worker(conn, finished, inherited):
    """A pool process: run each job received on `conn` and post (race
    id, verdict, stats) back, until the coordinator's end closes."""
    for c in inherited:
        c.close()
    while True:
        try:
            race, spec, prop, strategy, bound, minimize_mode = conn.recv()
        except EOFError:
            return
        try:
            verdict, stats = recomp_verify(
                spec, prop, strategy, bound=bound,
                minimize_mode=minimize_mode,
                cancel=_RaceCancel(finished, race))
        except Exception as exc:  # report, don't wedge the coordinator
            verdict = Verdict(INCONCLUSIVE, reason="error: %s" % exc)
            stats = replace(_empty_stats(), strategy=strategy.kind)
        conn.send((race, verdict, stats))


_POOL = _Pool()


def _empty_stats():
    return StatsReport(strategy="", n=0, m=0, k=0, stages=(),
                       max_states=0, elapsed_ms=0)


def _timed_out():
    """`run_portfolio`'s outcome when its timeout passes first."""
    return Verdict(INCONCLUSIVE, reason="timeout"), _empty_stats(), None
