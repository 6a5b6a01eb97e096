"""State-graph generation: the streaming check against the full error
LTS, and what `bound` admits in each."""

import pytest

import oracle as oc
from recomp import parse
from recomp.corpus import ALL, twophase
from recomp.lts import StateBoundExceeded, pi_reachable, pi_trace
from recomp.semantics import err_lts, err_reach

# tpcounter's counter is unbounded, so its whole-spec searches end here
BOUND = 20_000


@pytest.fixture(scope="module")
def tp():
    return parse(twophase(3))


def test_bound_caps_non_violating_states_in_both_searches(tp):
    prop = tp.property("Consistent")  # holds: all 288 states are explored
    assert err_reach(tp, prop, bound=288) == (False, 288, None)
    assert err_lts(tp, prop, bound=288).n_states == 288
    with pytest.raises(StateBoundExceeded):
        err_reach(tp, prop, bound=287)
    with pytest.raises(StateBoundExceeded):
        err_lts(tp, prop, bound=287)


def test_violating_states_do_not_count_against_the_bound(tp):
    prop = tp.property("NoPrepares")
    # the search stops at the 11th state, the first violating one
    violated, count, _ = err_reach(tp, prop, bound=10)
    assert (violated, count) == (True, 11)
    # the full error LTS has 91 ordinary states plus pi
    assert err_lts(tp, prop, bound=91).n_states == 92
    with pytest.raises(StateBoundExceeded):
        err_lts(tp, prop, bound=90)


def _search(f):
    try:
        return f()
    except StateBoundExceeded:
        return "bound"


CASES = [(name, prop.name) for name, gen in sorted(ALL.items())
         for prop in parse(gen()).properties]


@pytest.mark.parametrize("name,prop_name", CASES)
def test_err_reach_agrees_with_the_error_lts(name, prop_name):
    spec = parse(ALL[name]())
    prop = spec.property(prop_name)
    reach = _search(lambda: err_reach(spec, prop, bound=BOUND))
    full = _search(lambda: err_lts(spec, prop, bound=BOUND))
    if full == "bound":
        # the error LTS is infinite (tpcounter); only a violation, found
        # before the bound, lets the streaming search finish
        assert reach == "bound" or reach[0]
    else:
        assert reach[0] == pi_reachable(full)
    if reach == "bound" or not reach[0]:
        return
    witness = reach[2]
    if full != "bound":
        # both searches are breadth-first, so both witnesses are shortest
        assert len(witness) == len(pi_trace(full))
    end = oc.oracle_replay(spec, [(a, oc._conv(d)) for a, d in witness])
    assert not oc.o_eval(prop.body, {**oc._consts(spec), **dict(end)})
