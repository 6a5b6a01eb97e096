import importlib.util
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest

import mutants
import oracle as oc
from lts_oracle import product, weak_minimize
from recomp import decompose, engine, lts, parse, semantics, total_order
from recomp.corpus import ALL, consensus, lockserv, tpcounter, twophase
from recomp.engine import (HOLDS, INCONCLUSIVE, VIOLATED, Verdict,
                           comp_verify, recomp_verify, run_portfolio)
from recomp.lts import (_POLL_EVERY, Cancelled, StateBoundExceeded, explore,
                        hide_labels, minimize)
from recomp.order import Strategy, make_strategy
from recomp.recompose import P, build_groups, make_map, static_reduce
from recomp.semantics import err_lts, to_lts
from recomp.syntax import SpecError, symbolic_actions


@pytest.fixture(scope="module")
def tp():
    return parse(twophase(3))


# the hand-tuned two-phase commit map: components 2..4 to groups 1, 2, 1
TUNED = Strategy("custom", custom=make_map([(1, P), (2, 1), (3, 2), (4, 1)]))

# lockserv's components, in total order, are its slices onto holds,
# grants, rels, server and reqs: this map builds grants, rels and reqs as
# a middle group (4,096 states at size 4, 32,768 at size 5) and searches
# server's group last
LOCKSERV_MIDDLE = Strategy("custom", custom=make_map(
    [(1, P), (2, 1), (3, 1), (4, 2), (5, 1)]))


def _blocked(k):
    """x and a count up to k apart, and `Bad` steps x past k only at a = k
    + 1 and c = 0: `Small` holds, since a never gets there, and the
    product of x's and a's systems, (k + 1) ** 2 states, has no pi."""
    return """MODULE Blocked

CONSTANTS Below, Who

VARIABLES x, a, c

CONFIG
  Below = {%s}
  Who = {"w"}

INIT
  /\\ x = 0
  /\\ a = 0
  /\\ c = 0

ACTION IncX(w)
  /\\ x \\in Below
  /\\ x' = x + 1
  /\\ UNCHANGED <<a, c>>

ACTION IncA(w)
  /\\ a \\in Below
  /\\ a' = a + 1
  /\\ UNCHANGED <<x, c>>

ACTION Bad(w)
  /\\ x = %d
  /\\ a = %d
  /\\ c = 0
  /\\ x' = %d
  /\\ UNCHANGED <<a, c>>

NEXT \\E w \\in Who :
  \\/ IncX(w)
  \\/ IncA(w)
  \\/ Bad(w)

PROPERTY Small
  x /= %d
""" % (", ".join(map(str, range(k))), k, k + 1, k + 1, k + 1)


# `_blocked`'s components, in total order, are its slices onto x, c and a:
# this map composes a's group in the middle and c's last
BLOCKED_MIDDLE = Strategy("custom", custom=make_map([(1, P), (2, 2), (3, 1)]))


def _assert_replays(spec, prop, witness):
    trace = [(name, oc._conv(arg)) for name, arg in witness]
    end = oc.oracle_replay(spec, trace)  # every step must be enabled
    assert not oc.o_eval(prop.body, {**oc._consts(spec), **dict(end)})


@pytest.mark.parametrize("kind", ["S1", "S2", "S3", "S4"])
def test_twophase_consistent_holds(tp, kind):
    verdict, stats = recomp_verify(tp, tp.property("Consistent"), kind)
    assert verdict.outcome == HOLDS
    assert stats.strategy == kind
    assert stats.n == 4


def test_violation_reports_a_replayable_witness(tp):
    prop = tp.property("NoPrepares")
    for kind in ("S1", "S4"):
        verdict, _ = recomp_verify(tp, prop, kind)
        assert verdict.outcome == VIOLATED
        _assert_replays(tp, prop, verdict.witness)


def test_witness_is_shortest(tp):
    prop = tp.property("NoPrepares")
    verdict, _ = recomp_verify(tp, prop, "S4")
    _, shortest = oc.oracle_check(tp, prop)
    assert len(verdict.witness) == len(shortest)


def test_stopping_early_agrees_with_the_oracle():
    spec = parse(lockserv(3))
    prop = spec.property("Mutex")
    verdict, stats = recomp_verify(spec, prop, "S1")
    assert verdict.outcome == HOLDS
    assert stats.k < stats.m  # it does short-circuit on this model
    assert oc.oracle_check(spec, prop) == (True, None)


# twophase(3) with an action that changes nothing: slicing would drop it
IDLE = twophase(3).replace("ACTION SilentAbort", """ACTION Idle(rm)
  /\\ UNCHANGED <<msgs, rmState, tmState, tmPrepared>>

ACTION SilentAbort""").replace("\\/ SilentAbort(rm)",
                               "\\/ SilentAbort(rm)\n  \\/ Idle(rm)")


@pytest.mark.parametrize("name", ["Consistent", "NoPrepares"])
def test_s4_checks_the_parsed_spec(tp, monkeypatch, name):
    idle = parse(IDLE)
    assert "Idle" in [a.name for a in idle.actions]
    prop = idle.property(name)
    calls = []

    def counted(attr, fn):
        def count(*args, **kwargs):
            calls.append(attr)
            return fn(*args, **kwargs)
        return count
    for module, attr in [
            (engine, "decompose"), (engine, "total_order"),
            (engine, "make_strategy"), (engine, "static_reduce"),
            (engine, "build_groups"),
            (sys.modules["recomp.decompose"], "slice_spec"),
            (sys.modules["recomp.recompose"], "slice_spec")]:
        monkeypatch.setattr(module, attr,
                            counted(attr, getattr(module, attr)))
    verdict, stats = recomp_verify(idle, prop, "S4")
    assert calls == []
    recomp_verify(idle, prop, "S1")  # the counters do count
    assert {"decompose", "total_order", "make_strategy", "static_reduce",
            "build_groups", "slice_spec"} <= set(calls)
    monkeypatch.undo()
    plain, plain_stats = recomp_verify(tp, tp.property(name), "S4")
    assert verdict == plain
    assert stats.max_states == plain_stats.max_states
    assert [s.name for s in stats.stages] == ["TwoPhase"]
    assert (stats.n, stats.m) == (4, 0)
    holds, shortest = oc.oracle_check(idle, prop)
    assert (verdict.outcome == HOLDS) == holds
    if not holds:
        _assert_replays(idle, prop, verdict.witness)
        assert len(verdict.witness) == len(shortest)


def test_bound_exceeded_is_inconclusive(tp):
    verdict, stats = recomp_verify(tp, tp.property("Consistent"), "S4",
                                   bound=10)
    assert verdict.outcome == INCONCLUSIVE
    assert verdict.reason == "bound-exceeded"
    assert not verdict.conclusive()


@pytest.mark.parametrize("model,size,prop,kind,bound,stages", [
    # the whole-system search, the only stage of S4
    (tpcounter, 3, "Consistent", "S4", 5000, [
        ("TPCounter", 5000)]),
    # the property group
    (twophase, 5, "Consistent", "S3", 2000, [
        ("TwoPhase_C1_TwoPhase_C4_TwoPhase_C2", 2000)]),
    # a group, after the property group and before the last
    (lockserv, 5, "Mutex", LOCKSERV_MIDDLE, 5000, [
        ("LockServ_C1", 7, 7), ("LockServ_C3_LockServ_C4_LockServ_C5", 5000)]),
    # the composite of the property group and a group, searched, not
    # built: the search would visit all 900 states of a product without pi
    (_blocked, 29, "Small", BLOCKED_MIDDLE, 500, [
        ("Blocked_C1", 31, 31), ("Blocked_C3", 30, 30, 500)]),
    # the last group: its search gives up at the bound, and the build
    # that follows stops there
    (lockserv, 5, "Mutex", "S2", 300, [
        ("LockServ_C1", 7, 7),
        ("LockServ_C3_LockServ_C4_LockServ_C2_LockServ_C5", 300)]),
], ids=["search", "property-group", "group", "composite", "last-group"])
def test_bound_exceeded_reports_the_stage_at_the_bound(model, size, prop,
                                                        kind, bound, stages):
    spec = parse(model(size))
    verdict, stats = recomp_verify(spec, spec.property(prop), kind,
                                   bound=bound)
    assert verdict.reason == "bound-exceeded"
    assert stats.stages == tuple(engine.Stage(*s) for s in stages)
    assert stats.max_states == bound


def test_preset_cancel_event_is_reported():
    # needs a model bigger than the poll interval; the unbounded counter
    # under the monolithic strategy never finishes on its own
    spec = parse(tpcounter(3))
    cancel = multiprocessing.get_context().Event()
    cancel.set()
    verdict, _ = recomp_verify(spec, spec.property("Consistent"), "S4",
                               cancel=cancel)
    assert verdict.outcome == INCONCLUSIVE
    assert verdict.reason == "cancelled"


@pytest.mark.parametrize("mode", ["strong", "observational"])
def test_minimize_polls_cancel(tp, mode):
    cancel = multiprocessing.get_context().Event()
    cancel.set()
    # longer than the poll interval, so the quotient's `explore` polls too
    n = _POLL_EVERY + 2
    chain = explore([0], lambda k: [(0, k + 1)] if k < n - 1 else [],
                    [("A", None)], lambda k: False)
    # hiding A puts the branching kernel on the chain
    hide = {("A", None)} if mode == "observational" else ()
    with pytest.raises(Cancelled):
        minimize(chain, hide, cancel=cancel)
    # twophase(3)'s LTSs are smaller than the poll interval; a whole
    # check still sees the cancel, in composition or in minimization
    verdict, _ = recomp_verify(tp, tp.property("Consistent"), "S1",
                               minimize_mode=mode, cancel=cancel)
    assert (verdict.outcome, verdict.reason) == (INCONCLUSIVE, "cancelled")


@pytest.mark.parametrize("spec_text,strategy,mode", [
    (tpcounter(3), Strategy("S4"), "strong"),
    (twophase(8), TUNED, "observational"),
], ids=["tpcounter3-S4", "twophase8-tuned-observational"])
def test_cancel_is_acknowledged_promptly(spec_text, strategy, mode):
    # neither run finishes within half a second on its own (the
    # twophase(8) check takes well over a second); both must stop soon
    # after the cancel is set, wherever they are at that moment
    spec = parse(spec_text)
    cancel = threading.Event()
    set_at = []

    def fire():
        set_at.append(time.monotonic())
        cancel.set()

    timer = threading.Timer(0.5, fire)
    timer.start()
    try:
        verdict, _ = recomp_verify(spec, spec.property("Consistent"),
                                   strategy, minimize_mode=mode,
                                   cancel=cancel)
        done = time.monotonic()
    finally:
        timer.cancel()
    assert (verdict.outcome, verdict.reason) == (INCONCLUSIVE, "cancelled")
    assert done - set_at[0] < 2.0


class _CountingCancel:
    """A cancel token that is never set and counts its polls."""

    polls = 0

    def is_set(self):
        self.polls += 1
        return False


def _rows_split(operands):
    """Edges in the operands' rows that `compose(*operands)` splits: the
    rows of every operand but the one that goes first (the one that
    carries pi, or else the first), at the states that the product, by
    the definition, reaches outside pi."""
    first = next((i for i, o in enumerate(operands) if o.pi is not None), 0)
    _, keys = product(*operands)
    return sum(o.offsets[s + 1] - o.offsets[s]
               for i, o in enumerate(operands) if i != first
               for s in {key[i] for key in keys})


def _searched_edges(l):
    """Edges that a depth-first search of l in row order, as
    `lts.pi_reachable` searches a product, reads up to the first edge
    into pi."""
    seen = set()
    edges = 0
    for s in l.initials:
        if s == l.pi:
            return edges
        if s in seen:
            continue
        seen.add(s)
        stack = [iter(l.out(s))]
        while stack:
            for _, t in stack[-1]:
                edges += 1
                if t == l.pi:
                    return edges
                if t not in seen:
                    seen.add(t)
                    stack.append(iter(l.out(t)))
                    break
            else:
                stack.pop()
    return edges


def _count_rows_read(monkeypatch):
    """The lengths of the rows that `Unbuilt.row` returns from now on."""
    lengths = []
    row = lts.Unbuilt.row

    def counted(self, y):
        out = row(self, y)
        lengths.append(len(out))
        return out
    monkeypatch.setattr(lts.Unbuilt, "row", counted)
    return lengths


def _searched(l):
    """Edges `explore` appended to l before pi's self-loops."""
    return l.n_edges if l.pi is None else l.offsets[l.pi]


def test_polls_are_bounded_by_edges(monkeypatch):
    """lockserv(4) checks that build a 4,096-state middle group, with
    strong and with observational minimization, poll their cancel token
    at least once per `_POLL_EVERY` edges of every LTS they build, and of
    every pass that minimization, composition and search make over the
    edges they read or generate.  Composition reads the rows of the
    operands after the first that its search reaches; the search of the
    last stage reads the rows of its context, the middle group and the
    last group, whose levels read the last group's rows from its
    successors (`test_searched_stage_polls`), and both counts are rows
    that `Unbuilt.row` returns.  The depth-first search of a composite
    (`lts.pi_reachable`) generates the product's edges up to the first
    into pi, as many as the same search of the product built reads.

    Minimization of a system without tau labels (every stage in strong
    mode, and those that hide nothing in observational mode) reads every
    edge at least twice: for the edge keys of each refinement round,
    then for the quotient's keys.  Minimization with a tau label reads
    them three times: in the tau-SCC search, in the pass that lists each
    SCC's tau successors and visible pairs, and for the quotient's keys.
    Its branching refinement rounds poll on top of that, once per
    `_POLL_EVERY` pairs and signature elements they read while building
    the SCCs' signatures, and once per `_POLL_EVERY` SCCs they number.
    Determinization reads the edges of the quotient outside pi's row
    three times: in its tau-SCC search, its closure pass and its step
    pass; its subset search and strong quotient poll on top of that."""
    cancel = _CountingCancel()
    checked = []
    called = {"strong": {"explore", "minimize", "pi_reachable", "compose"},
              "observational": {"explore", "minimize", "determinize",
                                "compose"}}
    rows_read = _count_rows_read(monkeypatch)
    figuring = []  # non-empty while `needed` runs, whose calls go unchecked

    def count(module, name, needed):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            if figuring:
                return fn(*args, **kwargs)
            before = cancel.polls
            out = fn(*args, **kwargs)
            figuring.append(name)
            try:
                checked.append((name, cancel.polls - before,
                                needed(args, out)))
            finally:
                figuring.pop()
            return out
        monkeypatch.setattr(module, name, counted)

    def read(l):
        return l.n_edges // _POLL_EVERY

    def passes(l, hide):
        return 3 if any(map(lts.is_tau, hide_labels(l, hide).alphabet)) else 2

    def composed(args, out):
        """The product, and the rows of the operands after the first that
        it reaches; of a searched group, the rows it read, and no
        product if the search gave up."""
        if isinstance(args[-1], lts.Unbuilt):
            rows = sum(rows_read) // _POLL_EVERY
            rows_read.clear()
            return rows + (0 if out is None else _searched(out)
                           // _POLL_EVERY)
        return (_searched(out) // _POLL_EVERY
                + _rows_split(args) // _POLL_EVERY)

    count(lts, "explore", lambda args, out: _searched(out) // _POLL_EVERY)
    count(semantics, "explore",
          lambda args, out: _searched(out) // _POLL_EVERY)
    count(engine, "minimize",
          lambda args, out: passes(*args) * read(args[0]))
    count(engine, "determinize",
          lambda args, out: 3 * (_searched(args[0]) // _POLL_EVERY))
    count(engine, "compose", composed)
    count(engine, "pi_reachable",
          lambda args, out: _searched_edges(lts.compose(*args))
          // _POLL_EVERY)
    spec = parse(lockserv(4))
    for mode in called:
        checked.clear()
        verdict, _ = recomp_verify(spec, spec.property("Mutex"),
                                   LOCKSERV_MIDDLE, minimize_mode=mode,
                                   cancel=cancel)
        assert verdict.outcome == HOLDS
        assert {name for name, _, _ in checked} == called[mode]
        assert max(needed for _, _, needed in checked) >= 50  # big enough
        short = [c for c in checked if c[1] < c[2]]
        assert not short, (mode, short)


def test_searched_stage_polls(monkeypatch):
    """The search of lockserv(6) `Mutex`'s last group under S2 polls its
    cancel token at least once per `_POLL_EVERY` edges it appends to the
    product, and once per `_POLL_EVERY` edges it reads from the group's
    rows.  The depth-first search of `_blocked(100)`'s middle composite,
    10,201 states without pi, polls at least once per `_POLL_EVERY`
    edges it generates, which are all the product's edges."""
    cancel = _CountingCancel()
    rows_read = _count_rows_read(monkeypatch)
    searches = []
    compose, pi_reachable = engine.compose, engine.pi_reachable

    def counted(*operands, **kwargs):
        before = cancel.polls
        out = compose(*operands, **kwargs)
        searches.append((cancel.polls - before,
                         _searched(out) // _POLL_EVERY
                         + sum(rows_read) // _POLL_EVERY))
        return out

    def counted_search(*operands, **kwargs):
        before = cancel.polls
        out = pi_reachable(*operands, **kwargs)
        searches.append((cancel.polls - before,
                         lts.compose(*operands).n_edges // _POLL_EVERY))
        return out
    monkeypatch.setattr(engine, "compose", counted)
    monkeypatch.setattr(engine, "pi_reachable", counted_search)
    spec = parse(lockserv(6))
    verdict, stats = recomp_verify(spec, spec.property("Mutex"), "S2",
                                   cancel=cancel)
    assert verdict.outcome == HOLDS
    assert stats.stages[-1].minimized is None  # searched, not built
    [(polls, needed)] = searches
    assert needed >= 5  # big enough
    assert polls >= needed

    searches.clear()
    spec = parse(_blocked(100))
    verdict, stats = recomp_verify(spec, spec.property("Small"),
                                   BLOCKED_MIDDLE, cancel=cancel)
    assert verdict.outcome == HOLDS
    assert stats.stages[-1].composed == 101 ** 2  # searched to the end
    [(polls, needed)] = searches
    assert needed >= 15  # big enough
    assert polls >= needed


_CAPPED_OBSERVATIONAL_CHECK = """
import resource
import sys

sys.path.insert(0, sys.argv[1])
cap = 1200 * 2 ** 20
_, hard = resource.getrlimit(resource.RLIMIT_AS)
if hard == resource.RLIM_INFINITY or hard > cap:
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
from recomp import Strategy, parse, recomp_verify
from recomp.corpus import lockserv
from recomp.recompose import P, make_map
spec = parse(lockserv(4))
middle = Strategy("custom", custom=make_map(
    [(1, P), (2, 1), (3, 1), (4, 2), (5, 1)]))
verdict, stats = recomp_verify(spec, spec.property("Mutex"), middle,
                               bound=30_000, minimize_mode="observational")
print(verdict.outcome, stats.max_states, stats.stages[1].minimized)
"""


def test_observational_minimization_fits_in_1_2_gb():
    """lockserv(4) `Mutex` under `LOCKSERV_MIDDLE` hides most labels of its
    4,096-state middle group.  Its observational check runs in a process
    that caps its own address space at 1.2 GB, as `tests/fingerprint.py`
    does; saturating the weak transition relation raised `MemoryError`
    there on the 8,192-state group that S2 built before the last group
    was searched.  Branching refinement keeps one signature set per
    tau-SCC and builds no saturated relation."""
    src = str(pathlib.Path(__file__).parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", _CAPPED_OBSERVATIONAL_CHECK,
                           src], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["holds", "4096", "256"]


def _group_ltss(spec, prop, f=None, kind=None):
    """The LTSs `comp_verify` minimizes under map f, or under `kind`'s
    map after static reduction, the property group's first, each with
    the actions the other groups name (what hiding keeps visible)."""
    comps = decompose(spec, prop)
    comps = [comps[i - 1] for i in total_order(comps, spec)]
    if f is None:
        f = static_reduce(make_strategy(kind, len(comps)), comps)
    d_p, groups = build_groups(f, comps, spec)
    alphas = [symbolic_actions(g) for g in [d_p] + groups]
    return [(err_lts(g, prop, 30_000) if i == 0 else to_lts(g, 30_000),
             set().union(*alphas[:i], *alphas[i + 1:]))
            for i, g in enumerate([d_p] + groups)]


@pytest.mark.parametrize("name", [name for name in sorted(ALL)
                                  if parse(ALL[name](2)).properties])
def test_observational_quotients_are_weakly_minimal_on_the_corpus(name):
    """Every group that S1-S3 build for the corpus models with properties,
    at sizes 2 and 3, gets an observational (branching) quotient with as
    many states as the weak quotient of the saturating oracle: on the
    corpus, branching merges all that weak merges.  A grouping with an
    LTS past the bound (tpcounter's unbounded counter) is left out."""
    compared = 0
    for n in (2, 3):
        spec = parse(ALL[name](n))
        for prop in spec.properties:
            for kind in ("S1", "S2", "S3"):
                try:
                    groups = _group_ltss(spec, prop, kind=kind)
                except StateBoundExceeded:
                    assert name == "tpcounter"
                    continue
                for l, visible in groups:
                    hide = {lab for lab in l.alphabet
                            if lab[0] not in visible}
                    m = minimize(l, hide)
                    assert m.n_states == weak_minimize(l, hide).n_states, \
                        (n, prop.name, kind)
                    compared += 1
    assert compared >= 6


def test_observational_minimize_stops_in_its_refinement_rounds():
    """A token that trips at the first poll inside the refinement rounds
    (once the tau-SCCs and their pairs are built) stops observational
    `minimize` of twophase(5)'s property group with `Cancelled`."""
    spec = parse(twophase(5))
    l, visible = _group_ltss(spec, spec.property("Consistent"),
                             TUNED.custom)[0]
    tripped = []

    class InRounds:
        def is_set(self):
            frame = sys._getframe(2)  # past the poller's `spend`
            if (frame.f_code.co_name == "_branching_refine"
                    and "sig" in frame.f_locals):
                tripped.append(frame.f_lineno)
            return bool(tripped)

    hide = {lab for lab in l.alphabet if lab[0] not in visible}
    with pytest.raises(Cancelled):
        minimize(l, hide, InRounds())
    assert len(tripped) == 1


def test_monolithic_ignores_reduction():
    """The one-group strategy must check the spec as written, so an
    unbounded component cannot be dropped from under it."""
    spec = parse(tpcounter(3))
    prop = spec.property("Consistent")
    v_reduced, _ = recomp_verify(spec, prop, "S1", bound=50_000)
    assert v_reduced.outcome == HOLDS
    v_mono, _ = recomp_verify(spec, prop, "S4", bound=50_000)
    assert v_mono.outcome == INCONCLUSIVE
    assert v_mono.reason == "bound-exceeded"


def test_reduction_toggle_does_not_change_verdicts(tp):
    prop = tp.property("Consistent")
    comps = decompose(tp, prop)
    comps = [comps[i - 1] for i in total_order(comps, tp)]
    for kind in ("S1", "S2", "S3"):
        a, _ = recomp_verify(tp, prop, kind)
        f = make_strategy(kind, len(comps))
        b, _ = comp_verify(*build_groups(f, comps, tp), prop)
        assert a.outcome == b.outcome == HOLDS


def test_stats_track_stage_sizes(tp):
    verdict, stats = recomp_verify(tp, tp.property("Consistent"), "S2")
    assert verdict.outcome == HOLDS
    assert stats.m == 1
    assert stats.stages[0].minimized <= stats.stages[0].generated
    assert stats.max_states >= max(s.generated for s in stats.stages)
    assert stats.elapsed_ms >= 0


def test_comp_verify_rejects_property_outside_d_p(tp):
    d = to_lts(tp)
    with pytest.raises(SpecError):
        err_lts(parse(lockserv(2)), tp.property("Consistent"))
    del d


def test_observational_mode_agrees_with_strong(tp):
    for kind in ("S1", "S2"):
        s, _ = recomp_verify(tp, tp.property("Consistent"), kind,
                             minimize_mode="strong")
        o, _ = recomp_verify(tp, tp.property("Consistent"), kind,
                             minimize_mode="observational")
        assert s.outcome == o.outcome == HOLDS
    v, _ = recomp_verify(tp, tp.property("NoPrepares"), "S1",
                         minimize_mode="observational")
    assert v.outcome == VIOLATED


def _asym_twophase(n):
    """twophase(n) with `SilentAbort` barred for rm1, as
    `tests/test_symmetry.py` builds it: no CONFIG set is symmetric."""
    return twophase(n).replace(
        "ACTION SilentAbort(rm)\n",
        'ACTION SilentAbort(rm)\n  /\\ rm /= "rm1"\n')


@pytest.mark.parametrize("text,strategy,max_states,stages,reductions", [
    # nothing is hidden, so no stage is determinized, and neither
    # composite is built: the two middle stages search their products to
    # pi, 9 states each, where building the composites would take 35,969
    # and 71,937 states; the search of the property group against its
    # context, the two groups before the last and the last, outgrows the
    # context, which is built (1,459 states) and reduced (731) and then
    # composed with the property group, 3,393 states
    (_asym_twophase(6), Strategy("S1"), 3393,
     [(1395, 563, None), (64, 64, 9), (3, 2, 9), (1459, 731, 3393)],
     [("minimize", 1395, 563), ("minimize", 64, 64), ("minimize", 3, 2),
      ("minimize", 1459, 731)]),
    # the property group and the first group hide labels and are
    # determinized; so is the first composite, which hides the labels
    # that only they name; the last group is searched, unreduced
    (twophase(7), TUNED, 4247,
     [(4247, 705, None), (384, 130, 833), (128, None, 129)],
     [("minimize", 4247, 1265), ("determinize", 1265, 705),
      ("minimize", 384, 130), ("determinize", 130, 130),
      ("minimize", 833, 131), ("determinize", 131, 130)]),
    # the search of the last group gives up, so the group is built, and
    # it hides the labels only it names and is determinized
    (twophase(6), Strategy("S2"), 1459,
     [(1395, 321, None), (1459, 66, 320)],
     [("minimize", 1395, 563), ("determinize", 563, 321),
      ("minimize", 1459, 66), ("determinize", 66, 66)]),
], ids=["asym-twophase6-S1", "twophase7-tuned", "twophase6-S2"])
def test_observational_stages_reduce_only_what_hides_a_label(
        monkeypatch, text, strategy, max_states, stages, reductions):
    """Each (generated, minimized, composed) stage, and the (input,
    output) state counts of every reduction the engine runs."""
    seen = []
    for name in ("minimize", "determinize"):
        def recorded(l, *args, _fn=getattr(engine, name), _name=name,
                     **kwargs):
            out = _fn(l, *args, **kwargs)
            seen.append((_name, l.n_states, out.n_states))
            return out
        monkeypatch.setattr(engine, name, recorded)
    spec = parse(text)
    verdict, stats = recomp_verify(spec, spec.property("Consistent"),
                                   strategy, minimize_mode="observational")
    assert verdict.outcome == HOLDS
    assert stats.max_states == max_states
    assert [(s.generated, s.minimized, s.composed)
            for s in stats.stages] == stages
    assert seen == reductions


@pytest.mark.parametrize("text,stages", [
    # the middle composites, 5,987 and 13,300 states built, are searched;
    # the last stage's context is the two middle groups and the last
    (twophase(6), [(1395, 563, None), (256, 256, 11), (64, 64, 17),
                   (1459, 731, 4417)]),
    # 35,969 and 71,937 states built
    (_asym_twophase(6), [(1395, 563, None), (64, 64, 9), (3, 2, 9),
                         (1459, 731, 3393)]),
], ids=["twophase6", "asym-twophase6"])
def test_middle_composites_are_searched_not_built(monkeypatch, text, stages):
    """S1 with strong minimization builds no composite before the last
    stage: each middle stage searches the product of the property group
    and the groups so far depth first to pi, and reports the states it
    visited.  The last stage searches the property group against its
    context, the middle groups and the last group as one system; that
    search outgrows the context, which is built and reduced and then
    composed with the property group alone."""
    built = []
    compose = engine.compose

    def counted(*operands, **kwargs):
        built.append(len(operands))
        return compose(*operands, **kwargs)
    monkeypatch.setattr(engine, "compose", counted)
    spec = parse(text)
    verdict, stats = recomp_verify(spec, spec.property("Consistent"), "S1")
    assert verdict.outcome == HOLDS
    assert [(s.generated, s.minimized, s.composed)
            for s in stats.stages] == stages
    assert stats.max_states == stages[-1][2]
    assert built == [2, 2]  # the search of the context, then its product


def _mutant_abort_unguarded():
    """`tests/mutants.py`'s seed 22: twophase(3) with the guard
    `[type |-> "Abort"] \\in msgs` dropped, so `Consistent` fails."""
    name, text, made = mutants.mutant(22)
    assert (name, made) == (
        "twophase(3)", ["drop %r" % '/\\ [type |-> "Abort"] \\in msgs'])
    return text


@pytest.mark.parametrize("text,prop,outcome,last", [
    # the search outgrows the context, 1,459 states, which reduces to 731
    # before it meets the property group: as small as S2's one group
    (twophase(6), "Consistent", HOLDS, (1459, 731, 4417)),
    # decided by the search, which numbers 44 context states; the last
    # group alone has 96,696
    (twophase(7), "NoPrepares", VIOLATED, (44, None, 31)),
    # the search gives up, and the built context decides: a witness
    # through the reduced context still replays
    (_mutant_abort_unguarded(), "Consistent", VIOLATED, (55, 29, 196)),
], ids=["twophase6-Consistent", "twophase7-NoPrepares", "mutant22"])
def test_the_last_stage_searches_the_property_group_against_its_context(
        text, prop, outcome, last):
    """S1 strong: the last stage's (generated, minimized, composed) are
    the context states the search numbered, no reduction and the product
    if the search decides the check, or else the context as built and
    reduced and its product with the property group."""
    spec = parse(text)
    p = spec.property(prop)
    verdict, stats = recomp_verify(spec, p, "S1")
    assert verdict.outcome == outcome
    if outcome == VIOLATED:
        assert oc.oracle_check(spec, p)[0] is False
        _assert_replays(spec, p, verdict.witness)
    s = stats.stages[-1]
    assert (s.generated, s.minimized, s.composed) == last


def test_s1_reduces_its_context_as_s2_reduces_its_group():
    """twophase(6) `Consistent` strong: S1's context and S2's one group
    are the same three components, reduced from 1,459 to 731 states
    before they meet the property group, so both peak at 4,417 states.
    Under a bound of 5,000 S1 still holds, where composing the property
    group with the unreduced groups would take 13,284."""
    spec = parse(twophase(6))
    prop = spec.property("Consistent")
    _, s1 = recomp_verify(spec, prop, "S1")
    _, s2 = recomp_verify(spec, prop, "S2")
    assert s1.max_states == s2.max_states == 4417
    verdict, stats = recomp_verify(spec, prop, "S1", bound=5000)
    assert verdict.outcome == HOLDS
    assert stats.max_states == 4417


@pytest.mark.parametrize("model,size,prop,max_states,last", [
    # searched up to the verdict: building the group would take 65,536
    # and 96,696 states
    (lockserv, 5, "Mutex", 512, (1664, None, 512)),
    (twophase, 7, "NoPrepares", 17, (31, None, 17)),
    # the search outgrows the group, which is built and reduced
    (twophase, 6, "Consistent", 4417, (1459, 731, 4417)),
    (tpcounter, 3, "Consistent", 93, (55, 29, 93)),
], ids=["lockserv5-Mutex", "twophase7-NoPrepares", "twophase6-Consistent",
        "tpcounter3-Consistent"])
def test_the_last_group_is_searched_until_the_search_outgrows_it(
        model, size, prop, max_states, last):
    """S2's one group after the property group is the last: its
    (generated, minimized, composed) stage, the group states the search
    numbered, no reduction and the product if the search decides the
    check, or the stage as built if it gives up."""
    spec = parse(model(size))
    verdict, stats = recomp_verify(spec, spec.property(prop), "S2")
    expected = VIOLATED if prop == "NoPrepares" else HOLDS
    assert verdict.outcome == expected
    if expected == VIOLATED:
        _assert_replays(spec, spec.property(prop), verdict.witness)
    assert stats.max_states == max_states
    s = stats.stages[-1]
    assert (s.generated, s.minimized, s.composed) == last


def test_a_search_past_the_bound_leaves_the_check_to_the_build():
    """twophase(2) `Consistent` S2 searches a product of 56 states, but
    the group reduces from 19 states to 11 and its product has 29: under
    a bound of 40 the search gives up and the build decides the check."""
    spec = parse(twophase(2))
    prop = spec.property("Consistent")
    _, searched = recomp_verify(spec, prop, "S2")
    assert searched.stages[-1].composed == 56
    verdict, stats = recomp_verify(spec, prop, "S2", bound=40)
    assert verdict.outcome == HOLDS
    assert stats.max_states == 29
    s = stats.stages[-1]
    assert (s.generated, s.minimized, s.composed) == (19, 11, 29)


# --------------------------------------------------------------------------
# portfolio


def test_portfolio_returns_first_conclusive(tp):
    verdict, stats, winner = run_portfolio(
        tp, tp.property("Consistent"), ["S1", "S2", "S3", "S4"], workers=4)
    assert verdict.outcome == HOLDS
    assert winner is not None
    assert stats.strategy == winner.kind


def test_portfolio_with_single_bounded_strategy_is_inconclusive():
    spec = parse(tpcounter(3))
    verdict, _, winner = run_portfolio(
        spec, spec.property("Consistent"), ["S4"], workers=1, bound=20_000)
    assert verdict.outcome == INCONCLUSIVE
    assert "bound-exceeded" in verdict.reason
    assert winner is None


def test_portfolio_timeout():
    spec = parse(tpcounter(3))
    verdict, _, winner = run_portfolio(
        spec, spec.property("Consistent"), ["S4"], workers=1, timeout=0.2)
    assert verdict.outcome == INCONCLUSIVE
    assert verdict.reason == "timeout"
    assert winner is None


@pytest.fixture
def pool():
    """The engine's worker pool, stopped before and after the test."""
    engine._POOL.close()
    yield engine._POOL
    engine._POOL.close()


@pytest.fixture
def s1_dies(pool, monkeypatch):
    """Workers running S1 exit at once without posting a result.  The
    pool is stopped before and after the patch, so that the workers
    forked in between, and only they, inherit the patched engine."""
    def verify(spec, prop, strategy, **kwargs):
        if strategy.kind == "S1":
            os._exit(137)
        return recomp_verify(spec, prop, strategy, **kwargs)

    monkeypatch.setattr(engine, "recomp_verify", verify)


def _bounded(call, seconds=60):
    """call() in a daemon thread; fails the test instead of hanging."""
    out = []
    worker = threading.Thread(target=lambda: out.append(call()), daemon=True)
    t0 = time.monotonic()
    worker.start()
    worker.join(seconds)
    assert out, "no result after %d s" % seconds
    return out[0], time.monotonic() - t0


def test_portfolio_reports_a_dead_worker(tp, s1_dies):
    (verdict, stats, winner), seconds = _bounded(lambda: run_portfolio(
        tp, tp.property("Consistent"), ["S1"], workers=1))
    assert verdict == Verdict(INCONCLUSIVE, reason="S1 exited with code 137")
    assert winner is None
    assert seconds < 10


def test_portfolio_survives_a_dead_worker(tp, s1_dies):
    (verdict, stats, winner), _ = _bounded(lambda: run_portfolio(
        tp, tp.property("Consistent"), ["S1", "S4"], workers=2, timeout=50))
    assert verdict.outcome == HOLDS
    assert winner == Strategy("S4")
    assert stats.strategy == "S4"


def test_portfolio_launches_the_next_strategy_after_a_dead_worker(
        tp, s1_dies):
    (verdict, _, winner), _ = _bounded(lambda: run_portfolio(
        tp, tp.property("NoPrepares"), ["S1", "S2"], workers=1, timeout=50))
    assert verdict.outcome == VIOLATED
    assert winner == Strategy("S2")


def test_the_first_race_of_a_new_pool_is_not_cancelled(monkeypatch):
    # lockserv(3) under S2 polls its cancel token dozens of times
    fresh = engine._Pool()
    monkeypatch.setattr(engine, "_POOL", fresh)
    spec = parse(lockserv(3))
    try:
        (verdict, _, winner), _ = _bounded(lambda: run_portfolio(
            spec, spec.property("Mutex"), ["S2"], workers=1))
    finally:
        fresh.close()
    assert verdict.outcome == HOLDS
    assert winner == Strategy("S2")


def test_pool_replaces_a_worker_killed_while_idle(tp, pool):
    prop = tp.property("NoPrepares")
    (verdict, _, _), _ = _bounded(lambda: run_portfolio(
        tp, prop, ["S1", "S2"], workers=2))
    assert verdict.outcome == VIOLATED
    assert len(pool.workers) == 2
    # the winner's worker has posted its result and waits for a job
    idle = next(w for w in pool.workers if w.race is None)
    os.kill(idle.process.pid, signal.SIGKILL)
    idle.process.join(10)
    assert idle.process.exitcode == -signal.SIGKILL
    (verdict, _, winner), _ = _bounded(lambda: run_portfolio(
        tp, prop, ["S1", "S2"], workers=2))
    assert verdict.outcome == VIOLATED
    _assert_replays(tp, prop, verdict.witness)
    assert len(pool.workers) == 2
    assert idle not in pool.workers
    assert all(w.process.is_alive() for w in pool.workers)


PORTFOLIO = ("S1", "S2", "S3", "S4")


def _launch_order(spec, kinds, workers=2, prop="Consistent"):
    """The kinds `_launch_order` starts, with the caller's list checked
    to be unchanged; a custom map is named by its `Strategy`."""
    strategies = [Strategy(k) if isinstance(k, str) else k for k in kinds]
    given = list(strategies)
    out = engine._launch_order(spec, spec.property(prop), strategies,
                               workers)
    assert strategies == given and out is not strategies
    return [s.kind if s.custom is None else s for s in out]


def test_launch_order_starts_s4_second_under_symmetry(tp):
    assert semantics.symmetric_sets(tp, tp.property("Consistent"))
    assert _launch_order(tp, PORTFOLIO) == ["S1", "S4", "S2", "S3"]
    assert _launch_order(tp, PORTFOLIO, workers=1) == ["S1", "S4", "S2",
                                                       "S3"]


@pytest.mark.parametrize("kinds", [["S4", "S1"], ["S2", "S3"], ["S1", "S4"]])
def test_launch_order_keeps_an_order_without_s4_behind_second(tp, kinds):
    assert _launch_order(tp, kinds, workers=1) == kinds


def test_launch_order_keeps_a_custom_maps_relative_place(tp):
    assert _launch_order(tp, ["S1", TUNED, "S2", "S4"]) == [
        "S1", "S4", TUNED, "S2"]
    assert _launch_order(tp, [TUNED, "S2", "S4"], workers=1) == [
        TUNED, "S4", "S2"]


def test_launch_order_without_symmetry_is_the_callers():
    spec = parse(_asym_twophase(3))
    assert not semantics.symmetric_sets(spec, spec.property("Consistent"))
    assert _launch_order(spec, PORTFOLIO) == list(PORTFOLIO)


def test_launch_order_with_a_worker_per_strategy_is_the_callers(tp):
    assert _launch_order(tp, PORTFOLIO, workers=4) == list(PORTFOLIO)
    assert _launch_order(tp, ["S1", "S2", "S4"], workers=3) == [
        "S1", "S2", "S4"]


def test_one_worker_starts_the_callers_first_strategy_first(pool):
    # S4 alone runs toward the default bound on the counter; S1 decides
    # the check in milliseconds
    counter = parse(tpcounter(3))
    prop = counter.property("Consistent")
    assert semantics.symmetric_sets(counter, prop)
    (verdict, stats, winner), seconds = _bounded(lambda: run_portfolio(
        counter, prop, list(PORTFOLIO), workers=1))
    assert verdict.outcome == HOLDS
    assert winner == Strategy("S1") and stats.strategy == "S1"
    assert seconds < 10


@pytest.mark.parametrize("model,size", [(twophase, 4), (tpcounter, 3)],
                         ids=["twophase4", "tpcounter3"])
def test_portfolio_witnesses_replay_whichever_strategy_wins(model, size):
    # which strategy wins is timing-dependent; S4's witnesses are
    # representatives' paths renamed back to concrete states
    spec = parse(model(size))
    prop = spec.property("NoPrepares")
    kinds = list(PORTFOLIO)
    for _ in range(5):
        (verdict, stats, winner), _ = _bounded(lambda: run_portfolio(
            spec, prop, kinds, workers=2))
        assert verdict.outcome == VIOLATED
        assert stats.strategy == winner.kind
        _assert_replays(spec, prop, verdict.witness)
    assert kinds == list(PORTFOLIO)


class _LaunchCounter:
    """Stands in for `multiprocessing` in the engine, and for its default
    context, and counts the processes started through it."""

    def __init__(self):
        self.launched = 0
        self.ctx = multiprocessing.get_context()

    def get_context(self):
        return self

    def Process(self, *args, **kwargs):
        self.launched += 1
        return self.ctx.Process(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.ctx, name)


def test_in_process_checks_never_import_multiprocessing():
    src = str(pathlib.Path(__file__).parent.parent / "src")
    check = ("import sys; sys.path.insert(0, sys.argv[1]); import recomp; "
             "from recomp import engine; "
             "print('multiprocessing' in sys.modules); "
             "print(engine.multiprocessing.__name__)")
    proc = subprocess.run([sys.executable, "-c", check, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # imported on first use, through the engine's module attribute
    assert proc.stdout.split() == ["False", "multiprocessing"]


def test_pool_reuses_its_workers(tp, pool, monkeypatch):
    launches = _LaunchCounter()
    monkeypatch.setattr(engine, "multiprocessing", launches)
    for name in ("Consistent", "NoPrepares") * 2 + ("Consistent",):
        (verdict, _, _), _ = _bounded(lambda: run_portfolio(
            tp, tp.property(name), ["S1", "S2", "S3", "S4"], workers=2))
        assert verdict.outcome == (HOLDS if name == "Consistent"
                                   else VIOLATED)
    assert launches.launched == 2
    assert len(pool.workers) == 2


def test_a_timed_out_race_never_returns_a_stale_result(tp, pool):
    counter = parse(tpcounter(3))
    (verdict, _, winner), _ = _bounded(lambda: run_portfolio(
        counter, counter.property("Consistent"), ["S4"], workers=1,
        timeout=0.2))
    assert (verdict.outcome, verdict.reason, winner) == (
        INCONCLUSIVE, "timeout", None)
    # the one worker is still on the counter until it sees the cancel
    prop = tp.property("NoPrepares")
    (verdict, stats, winner), _ = _bounded(lambda: run_portfolio(
        tp, prop, ["S1"], workers=1))
    assert verdict.outcome == VIOLATED
    assert winner == Strategy("S1")
    assert stats.strategy == "S1"
    _assert_replays(tp, prop, verdict.witness)
    assert len(pool.workers) == 1


def test_concurrent_races_both_decide(tp, pool):
    out = {}

    def race(name):
        out[name] = run_portfolio(tp, tp.property(name),
                                  ["S1", "S2", "S3", "S4"], workers=2)

    threads = [threading.Thread(target=race, args=(name,), daemon=True)
               for name in ("Consistent", "NoPrepares")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
        assert not t.is_alive(), "no result after 60 s"
    assert out["Consistent"][0].outcome == HOLDS
    verdict = out["NoPrepares"][0]
    assert verdict.outcome == VIOLATED
    _assert_replays(tp, tp.property("NoPrepares"), verdict.witness)


def test_waiting_for_another_race_counts_against_the_timeout(tp, pool):
    counter = parse(tpcounter(3))
    other = threading.Thread(daemon=True, target=lambda: run_portfolio(
        counter, counter.property("Consistent"), ["S4"], workers=1,
        timeout=1.5))
    other.start()
    while not pool.lock.locked():
        time.sleep(0.001)
    t0 = time.monotonic()
    verdict, _, winner = run_portfolio(tp, tp.property("Consistent"),
                                       ["S1"], workers=1, timeout=0.2)
    assert (verdict.outcome, verdict.reason, winner) == (
        INCONCLUSIVE, "timeout", None)
    assert time.monotonic() - t0 < 1.0
    other.join(10)
    assert not other.is_alive()


def test_a_slow_loser_does_not_hold_up_a_later_timeout(tp, pool,
                                                       monkeypatch):
    # S4 ignores its cancel token for 3 s, so its worker stays busy
    # well after its race has timed out
    def verify(spec, prop, strategy, **kwargs):
        if strategy.kind == "S4":
            time.sleep(3)
        return recomp_verify(spec, prop, strategy, **kwargs)

    monkeypatch.setattr(engine, "recomp_verify", verify)
    verdict, _, _ = run_portfolio(tp, tp.property("Consistent"), ["S4"],
                                  workers=1, timeout=0.2)
    assert verdict.reason == "timeout"
    [slow] = pool.workers
    t0 = time.monotonic()
    verdict, _, winner = run_portfolio(tp, tp.property("NoPrepares"),
                                       ["S1"], workers=1, timeout=0.2)
    assert (verdict.outcome, verdict.reason, winner) == (
        INCONCLUSIVE, "timeout", None)
    assert time.monotonic() - t0 < 1.0
    assert pool.workers == [slow] and slow.race is not None
    # a race without a timeout waits for the loser, and reuses its worker
    prop = tp.property("NoPrepares")
    (verdict, _, winner), _ = _bounded(lambda: run_portfolio(
        tp, prop, ["S1"], workers=1))
    assert verdict.outcome == VIOLATED
    assert winner == Strategy("S1")
    _assert_replays(tp, prop, verdict.witness)
    assert pool.workers == [slow]


class _StartMethod:
    """Stands in for `multiprocessing` in the engine, with another start
    method as its default."""

    def __init__(self, method):
        self.ctx = multiprocessing.get_context(method)

    def get_context(self):
        return self.ctx


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_the_pool_runs_under_other_start_methods(tp, pool, monkeypatch,
                                                 method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip("no %s start method here" % method)
    monkeypatch.setattr(engine, "multiprocessing", _StartMethod(method))
    for name, outcome in (("NoPrepares", VIOLATED), ("Consistent", HOLDS)):
        (verdict, _, winner), _ = _bounded(lambda: run_portfolio(
            tp, tp.property(name), ["S1", "S2"], workers=2))
        assert verdict.outcome == outcome
        assert winner is not None
    assert len(pool.workers) == 2
    assert all(w.process.is_alive() for w in pool.workers)


def test_portfolio_requires_a_strategy(tp):
    with pytest.raises(ValueError):
        run_portfolio(tp, tp.property("Consistent"), [])


@pytest.mark.parametrize("timeout", [float("inf"), float("nan"), 0, -1, 1e9])
def test_portfolio_rejects_a_timeout_out_of_range(tp, pool, monkeypatch,
                                                  timeout):
    # checked before the pool starts: no worker is forked
    launches = _LaunchCounter()
    monkeypatch.setattr(engine, "multiprocessing", launches)
    with pytest.raises(ValueError) as got:
        run_portfolio(tp, tp.property("Consistent"), ["S4"], workers=1,
                      timeout=timeout)
    assert str(got.value) == ("timeout must be above 0 and at most %d "
                              "seconds" % engine.MAX_TIMEOUT)
    assert launches.launched == 0 and pool.workers == []


@pytest.mark.parametrize("bound", [0, -5])
def test_a_bound_below_one_raises(tp, bound):
    prop = tp.property("Consistent")
    for kind in ("S1", "S4"):
        with pytest.raises(ValueError, match="bound must be at least 1"):
            recomp_verify(tp, prop, kind, bound=bound)


@pytest.mark.parametrize("kwargs", [
    {"bound": 0}, {"bound": -1}, {"workers": 0}, {"workers": -2}],
    ids=["bound-0", "bound-negative", "workers-0", "workers-negative"])
def test_portfolio_rejects_a_bound_or_worker_count_below_one(
        tp, pool, monkeypatch, kwargs):
    # checked before the pool starts: no worker is forked
    launches = _LaunchCounter()
    monkeypatch.setattr(engine, "multiprocessing", launches)
    kwargs = {"workers": 2, **kwargs}
    with pytest.raises(ValueError, match="must be at least 1"):
        run_portfolio(tp, tp.property("Consistent"), ["S1", "S4"], **kwargs)
    assert launches.launched == 0 and pool.workers == []


@pytest.mark.parametrize("mode", ["Observational", "bogus", None])
def test_an_unknown_minimize_mode_raises(tp, mode):
    prop = tp.property("Consistent")
    for kind in ("S1", "S4"):
        with pytest.raises(ValueError, match="unknown minimization mode"):
            recomp_verify(tp, prop, kind, minimize_mode=mode)


@pytest.mark.parametrize("mode", ["Observational", "bogus"])
def test_portfolio_rejects_an_unknown_minimize_mode(tp, pool, monkeypatch,
                                                    mode):
    # checked before the pool starts: no worker is forked
    launches = _LaunchCounter()
    monkeypatch.setattr(engine, "multiprocessing", launches)
    with pytest.raises(ValueError, match="unknown minimization mode"):
        run_portfolio(tp, tp.property("Consistent"), ["S1", "S4"],
                      workers=2, minimize_mode=mode)
    assert launches.launched == 0 and pool.workers == []


def test_custom_strategy_runs_through_the_engine(tp):
    verdict, stats = recomp_verify(tp, tp.property("Consistent"), TUNED)
    assert verdict.outcome == HOLDS
    assert stats.m == 2


@pytest.mark.parametrize("pairs", [
    [(1, P), (2, 1)],  # components 3 and 4 left out
    [(1, P), (2, 1), (3, 1), (4, 1), (5, 1)],  # there is no component 5
])
def test_custom_map_must_cover_exactly_the_components(tp, pairs):
    strategy = Strategy("custom", custom=make_map(pairs))
    with pytest.raises(SpecError, match="cover components 1..4"):
        recomp_verify(tp, tp.property("Consistent"), strategy)


@pytest.mark.parametrize("pairs", [
    [(1, P), (2, 1)],
    [(1, P), (2, 1), (3, 1), (4, 1), (5, 1)],
], ids=["components-left-out", "no-component-5"])
def test_portfolio_raises_for_a_map_off_the_components(tp, pool, monkeypatch,
                                                       pairs):
    # checked before the pool starts: no worker is forked
    launches = _LaunchCounter()
    monkeypatch.setattr(engine, "multiprocessing", launches)
    strategy = Strategy("custom", custom=make_map(pairs))
    with pytest.raises(SpecError, match="cover components 1..4"):
        run_portfolio(tp, tp.property("Consistent"), ["S1", strategy],
                      workers=2)
    assert launches.launched == 0 and pool.workers == []


@pytest.mark.parametrize("kind", ["S1", "S4"])
def test_a_property_on_unknown_variables_raises(tp, kind):
    lock = parse(lockserv(3))
    with pytest.raises(SpecError, match="references unknown variables"):
        recomp_verify(tp, lock.property("Mutex"), kind)


def test_verdict_conclusiveness():
    assert Verdict(HOLDS).conclusive()
    assert Verdict(VIOLATED, witness=()).conclusive()
    assert not Verdict(INCONCLUSIVE, reason="x").conclusive()


# --------------------------------------------------------------------------
# the benchmark's tracer


def _load_tracer():
    path = pathlib.Path(__file__).parent.parent / "perfbench" / "tracer.py"
    if not path.exists():
        pytest.skip("perfbench/tracer.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_called_through_the_engine_globals():
    """The tracer patches names in `recomp.engine`'s namespace, so each
    must be a global there that the engine's functions look up."""
    looked_up = set()
    for fn in (engine.comp_verify, engine.recomp_verify, engine._reduced,
               engine.ordered_components):
        looked_up.update(fn.__code__.co_names)
    for name in _load_tracer().TRACED:
        assert name in vars(engine), name
        assert name in looked_up, name
