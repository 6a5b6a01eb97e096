import random
from dataclasses import replace

import pytest

from recomp import parse, decompose
from recomp import syntax as sx
from recomp.corpus import (ALL, env_component, rm_component, tm1_component,
                           tm2_component, twophase, twophase_prepare)
from recomp.decompose import decompose_steps, partition, slice_spec
from recomp.recompose import compose_specs
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
    # the composed name is derived from the component names; P1 is about
    # the structure, so compare with the name stripped
    return replace(normalize(spec), name="")


@pytest.mark.parametrize("spec,prop", _cases())
def test_recomposing_all_components_restores_the_spec(spec, prop):
    comps = decompose(spec, prop)
    assert _structurally(compose_specs(comps)) == _structurally(spec)


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


def test_step_invariant_spec_equals_components_plus_remainder(tp3):
    prop = tp3.property("Consistent")
    done = []
    for comp, rest in decompose_steps(tp3, prop):
        done.append(comp)
        parts = done + ([rest] if rest is not None else [])
        assert _structurally(compose_specs(parts)) == _structurally(tp3)


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
    shuffled = sx.SpecAst(**{
        **tp3.__dict__,
        "actions": tuple(
            sx.ActionDef(a.name, a.param,
                         tuple(rng.sample(a.conjuncts, len(a.conjuncts))))
            for a in tp3.actions),
    })
    a = decompose(tp3, tp3.property("Consistent"))
    b = decompose(shuffled, shuffled.property("Consistent"))
    assert [set(c.variables) for c in a] == [set(c.variables) for c in b]


def test_partition_closes_over_conjunct_coupling(tp3):
    # msgs appears together with tmState in TM actions, but rmState's
    # own updates never mention other variables
    p = partition(tp3, {"rmState"})
    assert p.v_c == {"rmState"}
    p = partition(tp3, {"tmState"})
    assert "tmPrepared" not in p.v_c or "tmState" in p.v_c


def test_partition_rejects_bad_seed(tp3):
    with pytest.raises(SpecError):
        partition(tp3, set())
    with pytest.raises(SpecError):
        partition(tp3, {"nope"})


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
