from dataclasses import replace
from itertools import combinations

import pytest

from recomp import parse, decompose, total_order
from recomp import syntax as sx
from recomp.corpus import ALL, tpcounter, twophase
from recomp.decompose import slice_spec
from recomp.recompose import (P, RecompositionMap, alphabets, build_groups,
                              interaction_sets, make_map, parse_map_file,
                              render_map, static_reduce)
from recomp.syntax import SpecError


def _ordered(spec, propname):
    prop = spec.property(propname)
    comps = decompose(spec, prop)
    perm = total_order(comps, spec)
    return [comps[i - 1] for i in perm]


@pytest.fixture(scope="module")
def tp():
    return parse(twophase(3))


@pytest.fixture(scope="module")
def tp_comps(tp):
    return _ordered(tp, "Consistent")


def _group(spec, parts):
    """The group that `build_groups` makes of the parts."""
    parts = list(parts)
    f = make_map([(i + 1, P) for i in range(len(parts))])
    return build_groups(f, parts, spec)[0]


def test_one_component_group_is_the_component_itself(tp, tp_comps):
    f = make_map([(1, P), (2, 1), (3, 2), (4, 3)])
    d_p, groups = build_groups(f, tp_comps, tp)
    assert d_p is tp_comps[0]
    assert all(g is c for g, c in zip(groups, tp_comps[1:]))


def _corpus_cases():
    out = []
    for name, gen in sorted(ALL.items()):
        spec = parse(gen())
        for p in spec.properties:
            out.append(pytest.param(spec, p.name, id="%s-%s" % (name, p.name)))
    return out


@pytest.mark.parametrize("spec,propname", _corpus_cases())
def test_group_is_the_spec_sliced_onto_its_parts(spec, propname):
    comps = _ordered(spec, propname)
    for size in range(2, len(comps) + 1):
        for parts in combinations(comps, size):
            group = _group(spec, parts)
            assert group.name == "_".join(p.name for p in parts)
            v = {x for p in parts for x in p.variables}
            # in the spec's written order, whatever the order of the parts
            assert replace(group, name=spec.name) == slice_spec(spec, v)


def test_shared_actions_conjoin_their_bodies(tp, tp_comps):
    rm, env = tp_comps[0], tp_comps[1]
    both = _group(tp, [rm, env])
    shared = {a.name for a in rm.actions} & {a.name for a in env.actions}
    assert shared  # SndPrepare at least

    def own(spec, name):
        a = next(x for x in spec.actions if x.name == name)
        return {c for c, kind in zip(a.conjuncts, a.kinds) if kind != "frame"}
    for name in shared:
        assert own(both, name) == own(rm, name) | own(env, name)


def test_one_sided_actions_frame_the_other_component(tp, tp_comps):
    rm, env = tp_comps[0], tp_comps[1]
    both = _group(tp, [rm, env])
    only_rm = {a.name for a in rm.actions} - {a.name for a in env.actions}
    assert only_rm
    for a in both.actions:
        if a.name in only_rm:
            frames = [c for c in a.conjuncts if isinstance(c, sx.Unchanged)]
            assert any(set(f.names) >= set(env.variables) for f in frames)


# --------------------------------------------------------------------------
# recomposition maps


def test_make_map_validates_shape():
    f = make_map([(1, P), (2, 1), (3, 1)])
    assert f.m == 1
    assert dict(f.assignment)[3] == 1
    with pytest.raises(SpecError):
        make_map([(1, 1), (2, P)])  # first component must carry the property
    with pytest.raises(SpecError):
        RecompositionMap(((1, P), (2, 2)), m=2)  # group 1 empty
    with pytest.raises(SpecError):
        RecompositionMap(((1, P), (1, 1)), m=1)  # duplicate
    with pytest.raises(SpecError):
        RecompositionMap((), m=0)  # empty domain
    with pytest.raises(SpecError, match="twice"):
        make_map([(1, P), (2, P), (2, 1)])  # P and 1 do not compare


def test_build_groups_folds_preimages(tp, tp_comps):
    f = make_map([(1, P), (2, 1), (3, 2), (4, 1)])
    d_p, groups = build_groups(f, tp_comps, tp)
    assert d_p.variables == tp_comps[0].variables
    assert len(groups) == 2
    assert set(groups[0].variables) == (set(tp_comps[1].variables)
                                        | set(tp_comps[3].variables))
    assert set(groups[1].variables) == set(tp_comps[2].variables)


def test_build_groups_composes_everything_once(tp, tp_comps):
    f = make_map([(1, P), (2, 1), (3, 1), (4, 1)])
    d_p, groups = build_groups(f, tp_comps, tp)
    all_vars = set(d_p.variables)
    for g in groups:
        all_vars |= set(g.variables)
    assert all_vars == set().union(*(c.variables for c in tp_comps))


def test_reduction_trace_converges():
    spec = parse(tpcounter(3))
    comps = _ordered(spec, "Consistent")
    x_sets = interaction_sets(alphabets(comps))
    assert x_sets[0] == frozenset({1})
    assert x_sets[-1] == x_sets[-2]
    # the counter shares no action with anything reachable from C1
    counter_idx = next(i + 1 for i, c in enumerate(comps)
                       if "counter" in c.variables)
    assert counter_idx not in x_sets[-1]


def test_static_reduce_renumbers_densely():
    spec = parse(tpcounter(3))
    comps = _ordered(spec, "Consistent")
    f = make_map([(1, P), (2, 1), (3, 2), (4, 3), (5, 4)])
    g = static_reduce(f, comps)
    assert g.m == 3  # the counter's group disappears, the rest close up
    assert sorted({grp for _, grp in g.assignment if grp != P}) == [1, 2, 3]


def test_static_reduce_keeps_everything_when_all_interact(tp_comps):
    f = make_map([(1, P), (2, 1), (3, 2), (4, 3)])
    assert static_reduce(f, tp_comps) == f


# --------------------------------------------------------------------------
# map files


def test_map_file_round_trip(tp_comps):
    f = make_map([(1, P), (2, 1), (3, 2), (4, 1)])
    text = render_map(f, tp_comps)
    assert parse_map_file(text, tp_comps) == f


def test_map_file_allows_comments_and_blank_lines(tp_comps):
    text = "# layout\n\n%s = P\n%s = 1  # group one\n%s = 1\n%s = 1\n" % tuple(
        c.name for c in tp_comps)
    f = parse_map_file(text, tp_comps)
    assert f.m == 1


def test_map_file_rejects_unknown_names(tp_comps):
    with pytest.raises(SpecError):
        parse_map_file("Nope = P\n", tp_comps)


def test_map_file_requires_full_coverage(tp_comps):
    text = "%s = P\n" % tp_comps[0].name
    with pytest.raises(SpecError):
        parse_map_file(text, tp_comps)


def test_map_file_rejects_bad_group_ids(tp_comps):
    lines = ["%s = P" % tp_comps[0].name]
    lines += ["%s = zero" % c.name for c in tp_comps[1:]]
    with pytest.raises(SpecError):
        parse_map_file("\n".join(lines), tp_comps)
