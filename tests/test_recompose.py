from itertools import combinations, permutations

import pytest

from recomp import parse, decompose, total_order
from recomp import syntax as sx
from recomp.corpus import tpcounter, twophase
from recomp.recompose import (P, RecompositionMap, build_groups,
                              compose_specs, make_map, necessary_components,
                              parse_map_file, render_map, static_reduce)
from recomp.syntax import SpecError


def _ordered(spec, propname):
    prop = spec.property(propname)
    comps = decompose(spec, prop)
    perm = total_order(comps, spec)
    return [comps[i - 1] for i in perm]


@pytest.fixture(scope="module")
def tp_comps():
    spec = parse(twophase(3))
    return _ordered(spec, "Consistent")


def test_one_part_is_returned_as_it_is(tp_comps):
    c = tp_comps[0]
    assert compose_specs([c]) is c


def _blocks(comps):
    """Every block of every set partition of comps (that is, every
    nonempty subset), in every order."""
    for size in range(1, len(comps) + 1):
        for subset in combinations(comps, size):
            yield from permutations(subset)


def test_group_layout_follows_its_parts(tp_comps):
    checked = 0
    for parts in _blocks(tp_comps):
        group = compose_specs(list(parts))
        first_seen = []
        for p in parts:
            first_seen += [a.name for a in p.actions
                           if a.name not in first_seen]
        assert [a.name for a in group.actions] == first_seen
        for a in group.actions:
            having = [next((b for b in p.actions if b.name == a.name), None)
                      for p in parts]
            own = tuple(c for b in having if b is not None
                        for c in b.conjuncts)
            lacking = tuple(v for p, b in zip(parts, having) if b is None
                            for v in p.variables)
            # the parts' conjuncts in part order, non-frame and own frames
            assert a.conjuncts[:len(own)] == own
            # then one frame over exactly the parts without the action
            assert a.conjuncts[len(own):] == (
                (sx.Unchanged(lacking),) if lacking else ())
        checked += 1
    assert checked == 64  # 4 + 12 + 24 + 24 ordered blocks of 4 components


def test_shared_actions_conjoin_their_bodies(tp_comps):
    rm, env = tp_comps[0], tp_comps[1]
    both = compose_specs([rm, env])
    shared = {a.name for a in rm.actions} & {a.name for a in env.actions}
    assert shared  # SndPrepare at least
    for a in both.actions:
        if a.name in shared:
            left = next(x for x in rm.actions if x.name == a.name)
            right = next(x for x in env.actions if x.name == a.name)
            assert len(a.conjuncts) == len(left.conjuncts) + len(right.conjuncts)


def test_one_sided_actions_frame_the_other_component(tp_comps):
    rm, env = tp_comps[0], tp_comps[1]
    both = compose_specs([rm, env])
    only_rm = {a.name for a in rm.actions} - {a.name for a in env.actions}
    for a in both.actions:
        if a.name in only_rm:
            frames = [c for c in a.conjuncts if isinstance(c, sx.Unchanged)]
            assert any(set(f.names) >= set(env.variables) for f in frames)


def _go_spec(module, var, param, domain='{"v"}'):
    return parse("MODULE %s\n\nVARIABLES %s\n\nINIT\n  /\\ %s = 0\n\n"
                 "ACTION Go(%s)\n  /\\ %s' = 1\n\n"
                 "NEXT \\E %s \\in %s :\n  \\/ Go(%s)\n"
                 % (module, var, var, param, var, param, domain, param))


def test_composition_rejects_two_parameter_names():
    # slices of one spec share each action's parameter; nothing is renamed
    with pytest.raises(SpecError, match="parameters p and q"):
        compose_specs([_go_spec("A", "x", "p"), _go_spec("B", "y", "q")])


def test_composition_rejects_different_next_domains():
    with pytest.raises(SpecError, match="domains differ"):
        compose_specs([_go_spec("A", "x", "p"),
                       _go_spec("B", "y", "p", '{"w"}')])


def test_composition_rejects_shared_variables(tp_comps):
    with pytest.raises(SpecError):
        compose_specs([tp_comps[0], tp_comps[0]])


def test_composition_rejects_conflicting_properties():
    a = parse("MODULE A\n\nVARIABLES x\n\nINIT\n  /\\ x = 0\n\n"
              "PROPERTY Inv\n  x = 0\n")
    b = parse("MODULE B\n\nVARIABLES y\n\nINIT\n  /\\ y = 0\n\n"
              "PROPERTY Inv\n  y = 1\n")
    with pytest.raises(SpecError):
        compose_specs([a, b])


def test_composition_rejects_conflicting_constants():
    a = parse("MODULE A\n\nCONSTANTS K\n\nVARIABLES x\n\nCONFIG\n  K = {1}\n\n"
              "INIT\n  /\\ x = 0\n")
    b = parse("MODULE B\n\nCONSTANTS K\n\nVARIABLES y\n\nCONFIG\n  K = {2}\n\n"
              "INIT\n  /\\ y = 0\n")
    with pytest.raises(SpecError):
        compose_specs([a, b])


# --------------------------------------------------------------------------
# recomposition maps


def test_make_map_validates_shape():
    f = make_map([(1, P), (2, 1), (3, 1)])
    assert f.m == 1
    assert f.group(3) == 1
    with pytest.raises(SpecError):
        make_map([(1, 1), (2, P)])  # first component must carry the property
    with pytest.raises(SpecError):
        RecompositionMap(((1, P), (2, 2)), m=2).validate()  # group 1 empty
    with pytest.raises(SpecError):
        RecompositionMap(((1, P), (1, 1)), m=1).validate()  # duplicate


def test_build_groups_folds_preimages(tp_comps):
    f = make_map([(1, P), (2, 1), (3, 2), (4, 1)])
    d_p, groups = build_groups(f, tp_comps)
    assert d_p.variables == tp_comps[0].variables
    assert len(groups) == 2
    assert set(groups[0].variables) == (set(tp_comps[1].variables)
                                        | set(tp_comps[3].variables))
    assert set(groups[1].variables) == set(tp_comps[2].variables)


def test_build_groups_composes_everything_once(tp_comps):
    f = make_map([(1, P), (2, 1), (3, 1), (4, 1)])
    d_p, groups = build_groups(f, tp_comps)
    all_vars = set(d_p.variables)
    for g in groups:
        all_vars |= set(g.variables)
    assert all_vars == set().union(*(c.variables for c in tp_comps))


def test_reduction_trace_converges():
    spec = parse(tpcounter(3))
    comps = _ordered(spec, "Consistent")
    trace = necessary_components(comps)
    assert trace.x_sets[0] == frozenset({1})
    assert trace.x_sets[-1] == trace.x_sets[-2]
    # the counter shares no action with anything reachable from C1
    counter_idx = next(i + 1 for i, c in enumerate(comps)
                       if "counter" in c.variables)
    assert counter_idx not in trace.kept


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
