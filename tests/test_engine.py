import multiprocessing
import os
import threading
import time

import pytest

import oracle as oc
from recomp import parse
from recomp.corpus import consensus, lockserv, tpcounter, twophase
from recomp import engine
from recomp.engine import (HOLDS, INCONCLUSIVE, VIOLATED, Verdict,
                           comp_verify, recomp_verify, run_portfolio)
from recomp.order import Strategy
from recomp.semantics import err_lts, to_lts
from recomp.syntax import SpecError


@pytest.fixture(scope="module")
def tp():
    return parse(twophase(3))


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
        trace = [(name, oc._conv(arg)) for name, arg in verdict.witness]
        end = oc.oracle_replay(tp, trace)  # every step must be enabled
        assert not oc.o_eval(prop.body, {**oc._consts(tp), **dict(end)})


def test_witness_is_shortest(tp):
    prop = tp.property("NoPrepares")
    verdict, _ = recomp_verify(tp, prop, "S4")
    _, shortest = oc.oracle_check(tp, prop)
    assert len(verdict.witness) == len(shortest)


def test_short_circuit_stops_early_and_agrees():
    spec = parse(lockserv(3))
    prop = spec.property("Mutex")
    fast, fstats = recomp_verify(spec, prop, "S1")
    full, kstats = recomp_verify(spec, prop, "S1", short_circuit=False)
    assert fast.outcome == full.outcome == HOLDS
    assert fstats.k < fstats.m  # it does short-circuit on this model
    assert kstats.k == kstats.m


def test_bound_exceeded_is_inconclusive(tp):
    verdict, stats = recomp_verify(tp, tp.property("Consistent"), "S4",
                                   bound=10)
    assert verdict.outcome == INCONCLUSIVE
    assert verdict.reason == "bound-exceeded"
    assert not verdict.conclusive()


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
    for kind in ("S1", "S2", "S3"):
        a, _ = recomp_verify(tp, tp.property("Consistent"), kind, reduce=True)
        b, _ = recomp_verify(tp, tp.property("Consistent"), kind, reduce=False)
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


# --------------------------------------------------------------------------
# portfolio


def test_portfolio_returns_first_conclusive(tp):
    verdict, stats, winner = run_portfolio(
        tp, tp.property("Consistent"), ["S1", "S2", "S3", "S4"], workers=4)
    assert verdict.outcome == HOLDS
    assert winner is not None
    assert stats.strategy == winner.label()


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
def s1_dies(monkeypatch):
    """Workers running S1 exit at once without posting a result; the
    forked workers inherit the patched engine."""
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


def test_portfolio_requires_a_strategy(tp):
    with pytest.raises(ValueError):
        run_portfolio(tp, tp.property("Consistent"), [])


def test_custom_strategy_runs_through_the_engine(tp):
    from recomp.recompose import make_map, P

    f = make_map([(1, P), (2, 1), (3, 2), (4, 1)])
    verdict, stats = recomp_verify(tp, tp.property("Consistent"),
                                   Strategy("custom", custom=f))
    assert verdict.outcome == HOLDS
    assert stats.m == 2


def test_verdict_conclusiveness():
    assert Verdict(HOLDS).conclusive()
    assert Verdict(VIOLATED, witness=()).conclusive()
    assert not Verdict(INCONCLUSIVE, reason="x").conclusive()
