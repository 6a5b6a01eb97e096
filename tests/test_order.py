import random

import pytest

from recomp import parse, decompose, total_order
from recomp.corpus import twophase
from recomp.engine import recomp_verify
from recomp.order import (KINDS, Strategy, data_flow_order,
                          dataflow_from_alphabets, make_strategy)
from recomp.recompose import P


def rand_alphabets(rng):
    """Random symbolic alphabets for 2..7 components over a small pool."""
    pool = ["A", "B", "C", "D", "E", "F", "G", "H"]
    n = rng.randrange(2, 8)
    return [set(rng.sample(pool, rng.randrange(1, 5))) for _ in range(n)]


def test_layers_partition_the_covered_components():
    rng = random.Random(41)
    for _ in range(100):
        alpha = rand_alphabets(rng)
        dfo = dataflow_from_alphabets(alpha)
        flat = [i for e in dfo.e_sets for i in e]
        assert len(flat) == len(set(flat))
        assert dfo.e_sets[0] == frozenset({1})


def test_edges_connect_adjacent_layers_with_shared_actions():
    rng = random.Random(43)
    for _ in range(60):
        alpha = rand_alphabets(rng)
        dfo = dataflow_from_alphabets(alpha)
        layer = {i: lvl for lvl, e in enumerate(dfo.e_sets) for i in e}
        for (i, j) in dfo.f_edges:
            assert layer[j] == layer[i] + 1
            assert alpha[i - 1] & alpha[j - 1]


def test_total_order_extends_the_partial_order():
    spec = parse(twophase(3))
    comps = decompose(spec, spec.property("Consistent"))
    dfo = data_flow_order(comps)
    perm = total_order(comps, spec)
    assert sorted(perm) == list(range(1, len(comps) + 1))
    pos = {i: k for k, i in enumerate(perm)}
    for (i, j) in dfo.f_edges:
        assert pos[i] < pos[j]


def test_total_order_puts_uncovered_components_last():
    # component 3 shares nothing with anyone reachable from 1
    alpha = [{"A"}, {"A", "B"}, {"Z"}]
    dfo = dataflow_from_alphabets(alpha)
    assert 3 not in dfo.covers()


def test_twophase_total_order_is_deterministic():
    spec = parse(twophase(3))
    comps = decompose(spec, spec.property("Consistent"))
    assert total_order(comps, spec) == total_order(comps, spec)


# --------------------------------------------------------------------------
# strategies


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_strategies_are_valid_maps(kind, n):
    f = make_strategy(kind, n)
    f.validate()
    assert f.group(1) == P


def test_strategy_shapes():
    assert make_strategy("S1", 4).m == 3  # one group per extra component
    assert make_strategy("S2", 4).m == 1  # everything in one group
    f3 = make_strategy("S3", 4)
    assert f3.m == 1 and f3.group(4) == 1 and f3.group(3) == P
    f4 = make_strategy("S4", 4)
    assert f4.m == 0
    assert all(g == P for _, g in f4.assignment)


def test_single_component_collapses_all_strategies():
    maps = {make_strategy(k, 1) for k in KINDS}
    assert len(maps) == 1
    assert maps.pop().m == 0


def test_unknown_strategy_kind_rejected():
    with pytest.raises(ValueError):
        make_strategy("S9", 3)
    with pytest.raises(ValueError):
        make_strategy("S1", 0)


def test_strategy_labels():
    # the stats of a check name its strategy by kind, "custom" for a map
    spec = parse(twophase(2))
    prop = spec.property("Consistent")
    n = len(decompose(spec, prop))
    for strategy in (Strategy("S2"),
                     Strategy("custom", custom=make_strategy("S2", n))):
        _, stats = recomp_verify(spec, prop, strategy)
        assert stats.strategy == strategy.kind


def test_strategy_kind_must_agree_with_its_map():
    f = make_strategy("S2", 4)
    for kind in KINDS:
        with pytest.raises(ValueError, match="takes no map"):
            Strategy(kind, custom=f)
    with pytest.raises(ValueError, match="needs a map"):
        Strategy("custom")
    with pytest.raises(ValueError, match="unknown strategy kind"):
        Strategy("S9")
    assert Strategy("custom", custom=f).custom is f
