import random
from dataclasses import replace

import pytest

from recomp import parse, decompose
from recomp import syntax as sx
from recomp.corpus import (ALL, env_component, rm_component, tm1_component,
                           tm2_component, twophase, twophase_prepare)
from recomp.decompose import slice_spec
from recomp.syntax import SpecError
from spec_helpers import normalize


def _cases():
    out = []
    for name, gen in sorted(ALL.items()):
        spec = parse(gen())
        for p in spec.properties:
            out.append(pytest.param(spec, p, id="%s-%s" % (name, p.name)))
    return out


def _structurally(spec):
    # component names are derived from the spec's name; the contract is
    # about the structure, so compare with the name stripped
    return replace(normalize(spec), name="")


@pytest.mark.parametrize("spec,prop", _cases())
def test_components_are_slices_that_restore_the_spec(spec, prop):
    comps = decompose(spec, prop)
    for c in comps:
        assert replace(c, name=spec.name) == slice_spec(spec, c.variables)
    # that the components partition the variables is the next test's
    every = [v for c in comps for v in c.variables]
    assert _structurally(slice_spec(spec, every)) == _structurally(spec)


@pytest.mark.parametrize("spec,prop", _cases())
def test_property_variables_land_in_first_component(spec, prop):
    comps = decompose(spec, prop)
    assert sx.free_vars(spec, prop.body) <= set(comps[0].variables)


@pytest.mark.parametrize("spec,prop", _cases())
def test_components_partition_the_variables(spec, prop):
    comps = decompose(spec, prop)
    seen = []
    for c in comps:
        seen.extend(c.variables)
    assert sorted(seen) == sorted(spec.variables)
    assert len(seen) == len(set(seen))


def test_twophase_splits_into_single_variable_components(tp3):
    comps = decompose(tp3, tp3.property("Consistent"))
    assert {frozenset(c.variables) for c in comps} == {
        frozenset({"rmState"}), frozenset({"msgs"}),
        frozenset({"tmState"}), frozenset({"tmPrepared"})}
    assert set(comps[0].variables) == {"rmState"}


def test_prepare_phase_slices_match_hand_written_components():
    spec = parse(twophase_prepare(3))
    comps = {c.variables[0]: c
             for c in decompose(spec, spec.property("Consistent"))}
    hand = {
        "rmState": rm_component(3),
        "msgs": env_component(3),
        "tmState": tm1_component(3),
        "tmPrepared": tm2_component(3),
    }
    for var, text in hand.items():
        expected = parse(text)
        got = replace(comps[var], name=expected.name)
        assert normalize(got) == normalize(expected)


def test_decompose_is_conjunct_order_independent(tp3):
    rng = random.Random(3)
    shuffled = replace(tp3, actions=tuple(
        sx.ActionDef(a.name, a.param,
                     tuple(rng.sample(a.conjuncts, len(a.conjuncts))))
        for a in tp3.actions))
    a = decompose(tp3, tp3.property("Consistent"))
    b = decompose(shuffled, shuffled.property("Consistent"))
    assert [set(c.variables) for c in a] == [set(c.variables) for c in b]


def _spec(variables, actions, prop):
    """A spec over integer variables, all 0 initially, with one property
    `Inv`; `actions` maps each action's name to its conjuncts."""
    lines = ["MODULE M", "", "VARIABLES " + ", ".join(variables), "", "INIT"]
    lines += ["  /\\ %s = 0" % v for v in variables]
    for name, conjuncts in actions.items():
        lines += ["", "ACTION %s(d)" % name]
        lines += ["  /\\ " + c for c in conjuncts]
    lines += ["", 'NEXT \\E d \\in {"a"} :']
    lines += ["  \\/ %s(d)" % name for name in actions]
    lines += ["", "PROPERTY Inv", "  " + prop]
    return parse("\n".join(lines) + "\n")


def _blocks(spec):
    return [set(c.variables) for c in decompose(spec, spec.property("Inv"))]


def test_decompose_closes_over_conjunct_coupling():
    # x meets y in A and y meets z in B: one block, though x and z never meet
    spec = _spec(["x", "y", "z", "w"], {
        "A": ["x = y", "x' = 1", "UNCHANGED <<y, z, w>>"],
        "B": ["z' = y", "UNCHANGED <<x, y, w>>"],
        "C": ["w' = w + 1", "UNCHANGED <<x, y, z>>"]}, "x = 0")
    assert _blocks(spec) == [{"x", "y", "z"}, {"w"}]


def test_decompose_frames_couple_nothing():
    # a frame names the variables its action leaves alone, but couples none
    spec = _spec(["x", "y"], {
        "A": ["x' = 1", "UNCHANGED <<y>>"],
        "B": ["y' = 1", "UNCHANGED <<x>>"]}, "x = 0")
    assert _blocks(spec) == [{"x"}, {"y"}]


def test_decompose_joins_the_property_blocks_into_c1():
    # a property over two otherwise separate blocks: C1 is their union
    spec = _spec(["x", "y", "z"], {
        "A": ["x' = 1", "UNCHANGED <<y, z>>"],
        "B": ["y' = 1", "UNCHANGED <<x, z>>"],
        "C": ["z' = 1", "UNCHANGED <<x, y>>"]}, "x = z")
    assert _blocks(spec) == [{"x", "z"}, {"y"}]


def test_decompose_orders_later_blocks_by_occurrences_then_name():
    # fewest occurrences first (q has 7, r and s 5 each), ties broken by
    # name, not by declaration order
    spec = _spec(["p", "q", "s", "r"], {
        "A": ["q = 0", "q' = q + 1", "UNCHANGED <<p, s, r>>"],
        "B": ["s' = 1", "UNCHANGED <<p, q, r>>"],
        "C": ["r' = 1", "UNCHANGED <<p, q, s>>"]}, "p = 0")
    assert [spec.occurrences[v] for v in "qrs"] == [7, 5, 5]
    assert _blocks(spec) == [{"p"}, {"r"}, {"s"}, {"q"}]


def _coupling_pieces(spec, variables):
    """The connected pieces of the coupling graph restricted to
    `variables`, found by search from each unvisited variable."""
    edges = {v: set() for v in variables}
    for a in spec.actions:
        for c, kind in zip(a.conjuncts, a.kinds):
            if kind != "frame":
                vs = (sx.free_vars(spec, c) - {a.param}) & set(variables)
                for v in vs:
                    edges[v] |= vs
    pieces, seen = [], set()
    for v in variables:
        if v in seen:
            continue
        piece, todo = set(), [v]
        while todo:
            u = todo.pop()
            if u not in piece:
                piece.add(u)
                todo.extend(edges[u] - piece)
        seen |= piece
        pieces.append(piece)
    return pieces


@pytest.mark.parametrize("spec,prop", _cases())
def test_components_are_the_connected_components_of_coupling(spec, prop):
    comps = decompose(spec, prop)
    # no non-frame conjunct reaches across two components
    home = {v: i for i, c in enumerate(comps) for v in c.variables}
    for a in spec.actions:
        for c, kind in zip(a.conjuncts, a.kinds):
            if kind != "frame":
                assert len({home[v] for v in
                            sx.free_vars(spec, c) - {a.param}}) <= 1
    # every later component is one piece; every piece of C1 holds a
    # property variable
    for c in comps[1:]:
        assert len(_coupling_pieces(spec, c.variables)) == 1
    pv = sx.free_vars(spec, prop.body)
    for piece in _coupling_pieces(spec, comps[0].variables):
        assert not pv or piece & pv


@pytest.mark.parametrize("name", sorted(ALL))
def test_spec_caches_the_variables_of_conjuncts_and_properties(name):
    spec = parse(ALL[name]())
    for a, reads in zip(spec.actions, spec.conjunct_vars):
        assert reads == tuple(sx.free_vars(spec, c) - {a.param}
                              for c in a.conjuncts)
    assert spec.property_vars == tuple(sx.free_vars(spec, p.body)
                                       for p in spec.properties)


def test_decompose_walks_each_conjunct_once(monkeypatch):
    spec = parse(ALL["lockserv"](7))
    walked = []
    free_idents = sx.free_idents
    monkeypatch.setattr(sx, "free_idents",
                        lambda e: walked.append(e) or free_idents(e))
    comps = decompose(spec, spec.property("Mutex"))
    assert len(comps) == 5
    # each conjunct and property once, and the checked property's own
    # unknown-variable check and seed
    assert len(walked) == (sum(len(a.conjuncts) for a in spec.actions)
                           + len(spec.properties) + 2)


def test_slice_drops_empty_actions():
    spec = parse(twophase(3))
    rm_only = slice_spec(spec, {"rmState"})
    names = {a.name for a in rm_only.actions}
    # the TM-only actions disappear from the rmState slice
    assert "SndCommit" not in names
    assert "SndPrepare" in names


def test_slice_regenerates_frames():
    spec = parse(twophase(3))
    s = slice_spec(spec, {"rmState", "msgs"})
    for a in s.actions:
        constrained = set()
        for c in a.conjuncts:
            kind = sx.classify_conjunct(c)
            if kind == "update":
                constrained.add(c.left.id)
            elif kind == "frame":
                constrained.update(c.names)
        assert constrained == {"rmState", "msgs"}


def test_slice_refuses_to_cut_an_update_dependency():
    text = ("MODULE M\n\nVARIABLES x, y\n\nINIT\n  /\\ x = 0\n  /\\ y = 0\n\n"
            "ACTION Step(d)\n  /\\ x' = y + 1\n  /\\ UNCHANGED <<y>>\n\n"
            "NEXT \\E d \\in {\"a\"} :\n  \\/ Step(d)\n")
    spec = parse(text)
    with pytest.raises(SpecError):
        slice_spec(spec, {"x"})


def test_decompose_rejects_property_with_unknown_variables(tp3):
    bad = sx.PropertyDef("Bad", sx.Eq(sx.Name("ghost"), sx.IntLit(0)))
    with pytest.raises(SpecError):
        decompose(tp3, bad)
