"""State-graph generation: the streaming check against the full error
LTS, what `bound` admits in each, boolean positions and hoisted guards
in the successor generator, the memoized invariant, and the work one
build does: its compile() calls, the values it builds once, the action
code it runs once per read projection and the coded states of builds
that cache nothing."""

from collections import Counter

import pytest

import oracle as oc
from recomp import (decompose, make_strategy, parse, semantics,
                    static_reduce, total_order)
from recomp import syntax as sx
from recomp import values as va
from recomp.corpus import ALL, lockserv, twophase
from recomp.lts import StateBoundExceeded, pi_reachable, pi_trace
from recomp.recompose import build_groups
from recomp.semantics import _compile, err_lts, err_reach, to_lts
from recomp.values import EvalError
from spec_helpers import search, walk

# tpcounter's counter is unbounded, so its whole-spec searches end here
BOUND = 20_000


@pytest.fixture(scope="module")
def tp():
    return parse(twophase(3))


def test_bound_caps_non_violating_states_in_both_searches(tp):
    prop = tp.property("Consistent")  # holds: all states are explored
    # err_reach explores one state for each of the 80 orbits of the 288
    # under the permutations of RMs; err_lts explores all 288
    assert err_reach(tp, prop, bound=80) == (False, 80, None)
    assert err_lts(tp, prop, bound=288).n_states == 288
    with pytest.raises(StateBoundExceeded):
        err_reach(tp, prop, bound=79)
    with pytest.raises(StateBoundExceeded):
        err_lts(tp, prop, bound=287)


def test_violating_states_do_not_count_against_the_bound(tp):
    prop = tp.property("NoPrepares")
    # the search stops at the 6th state, the first violating one, after
    # five representatives
    violated, count, _ = err_reach(tp, prop, bound=5)
    assert (violated, count) == (True, 6)
    with pytest.raises(StateBoundExceeded):
        err_reach(tp, prop, bound=4)
    # the full error LTS has 91 ordinary states plus pi
    assert err_lts(tp, prop, bound=91).n_states == 92
    with pytest.raises(StateBoundExceeded):
        err_lts(tp, prop, bound=90)


@pytest.mark.parametrize("bound", [0, -3])
def test_a_bound_below_one_raises_in_every_build(monkeypatch, bound):
    """Before, `bound=0` ran with the default and `bound=-3` reported
    that a state bound of -3 was exceeded."""
    spec = parse(twophase(2))
    prop = spec.property("Consistent")
    builds = [lambda: to_lts(spec, bound), lambda: err_lts(spec, prop, bound),
              lambda: err_reach(spec, prop, bound)]
    for build in builds:
        with pytest.raises(ValueError, match="bound must be at least 1"):
            build()
    # err_reach without the symmetry reduction, and None for the default
    monkeypatch.setattr(semantics, "symmetric_sets", lambda spec, prop: [])
    with pytest.raises(ValueError, match="bound must be at least 1"):
        err_reach(spec, prop, bound)
    assert semantics.state_bound(None) == semantics.DEFAULT_BOUND
    assert err_reach(spec, prop) == (False, 56, None)


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
        assert reach[0] == pi_reachable(full)[0]
    if reach == "bound" or not reach[0]:
        return
    witness = reach[2]
    if full != "bound":
        # both searches are breadth-first, so both witnesses are shortest
        assert len(witness) == len(pi_trace(full))
    end = oc.oracle_replay(spec, [(a, oc._conv(d)) for a, d in witness])
    assert not oc.o_eval(prop.body, {**oc._consts(spec), **dict(end)})


# --------------------------------------------------------------------------
# boolean positions and hoisted guards


def _one_action_spec(guards, domain='{"a", "b"}', prop="TRUE"):
    text = ("MODULE M\n\nVARIABLES x\n\nINIT\n  /\\ x = 0\n\n"
            "ACTION Step(d)\n%s  /\\ x' = x\n\n"
            "NEXT \\E d \\in %s :\n  \\/ Step(d)\n\n"
            "PROPERTY P\n  %s\n"
            % ("".join("  /\\ %s\n" % g for g in guards), domain, prop))
    return parse(text)


ILL_TYPED = ["~ 3", "3 /\\ TRUE", "(\\A e \\in {1, 2} : 1)", "x"]


@pytest.mark.parametrize("text", ILL_TYPED,
                         ids=["not", "and", "forall", "variable"])
def test_ill_typed_guards_and_properties_raise(text):
    with pytest.raises(EvalError):
        to_lts(_one_action_spec([text]))
    spec = _one_action_spec([], prop=text)
    with pytest.raises(EvalError):
        err_lts(spec, spec.property("P"))


def test_a_false_guard_skips_every_later_guard():
    # `~ d` is ill-typed on the string d, but runs only if x = 1
    l = to_lts(_one_action_spec(["x = 1", "~ d"]))
    assert (l.n_states, l.n_edges) == (1, 0)
    with pytest.raises(EvalError):
        to_lts(_one_action_spec(["x = 0", "~ d"]))
    # an argument-free guard after an argument guard false for every d
    # never runs
    l = to_lts(_one_action_spec(['d = "z"', "~ 3"]))
    assert (l.n_states, l.n_edges) == (1, 0)
    # operators that can fail stay where the spec puts them, even when
    # their operands are constants or the parameter
    for guard in ["({1} \\union 3) = {}", "({d} \\union 3) = {}",
                  "(1 + TRUE) = 2"]:
        l = to_lts(_one_action_spec(["x = 1", guard]))
        assert (l.n_states, l.n_edges) == (1, 0), guard
        with pytest.raises(EvalError):
            to_lts(_one_action_spec(["x = 0", guard]))


def test_a_quantifier_can_shadow_the_parameter():
    # inside the quantifier, {d} and [f |-> d] are built from its own d,
    # not read from the parameter's table over the Next domain
    for guard in ["(\\A d \\in {1} : {d} = {1})",
                  "(\\E d \\in {1} : [f |-> d] = [f |-> 1])"]:
        l = to_lts(_one_action_spec([guard]))
        assert (l.n_states, l.n_edges) == (1, 2), guard


def test_empty_domain_evaluates_no_guard():
    l = to_lts(_one_action_spec(["~ 3"], domain="{}"))
    assert (l.n_states, l.n_edges, l.alphabet) == (1, 0, ())


# --------------------------------------------------------------------------
# the invariant, memoized on the variables it reads


# reads two of twophase's four variables
MIXED = '\nPROPERTY Mixed\n  tmPrepared = {} \\/ tmState = "committed"\n'


def test_memoized_invariant_marks_the_oracle_violations():
    paths = set()
    texts = [(name, gen(3)) for name, gen in sorted(ALL.items())]
    for name, text in texts + [("twophase+Mixed", twophase(3) + MIXED)]:
        spec = parse(text)
        consts = oc._consts(spec)
        for prop in spec.properties:
            # tpcounter's states are cut at the limit
            _, ns, steps = walk(spec, prop, limit=2_000)
            states = list(steps)
            check = ns["prop"]
            calls = []
            # `violates` calls the module's `prop` by name
            ns["prop"] = lambda q: calls.append(q) or check(q)
            violates = ns["violates"]
            marked = {c for c in states if violates(c)}
            assert {c for c in states if violates(c)} == marked
            expected = set()
            for c in states:
                values = map(oc._conv, ns["decode"](c))
                env = {**consts, **dict(zip(spec.variables, values))}
                if not oc.o_eval(prop.body, env):
                    expected.add(c)
            assert marked == expected, (name, prop.name)
            # memoized: one call per distinct projection onto the read
            # variables; without the memo, one call per violates(c)
            used = sx.free_vars(spec, prop.body)
            projections = {tuple(x for x, v in zip(c, spec.variables)
                                 if v in used) for c in states}
            assert len(calls) in (len(projections), 2 * len(states)), \
                (name, prop.name)
            paths.add(len(calls) == len(projections))
    assert paths == {True, False}


# --------------------------------------------------------------------------
# the work of one build


def test_each_build_compiles_one_module_and_the_init_function(
        tp, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return compile(*args, **kwargs)

    monkeypatch.setattr(semantics, "compile", counting, raising=False)
    prop = tp.property("Consistent")
    for build in (lambda: to_lts(tp), lambda: err_lts(tp, prop),
                  lambda: err_reach(tp, prop)):
        calls.clear()
        build()
        assert len(calls) == 2, calls


def test_stepping_builds_no_sets_or_records(tp, monkeypatch):
    made = Counter()
    for name in ("mk_set", "mk_rec"):
        def counting(parts, real=getattr(va, name), name=name):
            made[name] += 1
            return real(parts)
        monkeypatch.setattr(va, name, counting)
    initials, _, ns = _compile(tp)
    # the constant sets and records, and their tables over the domain,
    # are built once, when the generated module runs
    assert made["mk_set"] and made["mk_rec"]
    made.clear()
    assert len(search(initials, ns["successors"])) == 288
    assert made == Counter()


class _Probe(dict):
    """An action's cache that counts its misses, each of which runs the
    action's code."""

    misses = 0

    def get(self, key):
        value = super().get(key)
        self.misses += value is None
        return value


def _read_set(spec, action):
    """The indices of the variables an action's successors depend on: the
    free variables of its guards and right-hand sides, and those it
    updates twice or both updates and frames."""
    used, updated, framed = set(), [], set()
    for c in action.conjuncts:
        kind = sx.classify_conjunct(c)
        if kind == "guard":
            used |= sx.free_idents(c) - {action.param}
        elif kind == "update":
            used |= sx.free_idents(c.right) - {action.param}
            updated.append(c.left.id)
        else:
            framed.update(c.names)
    used |= {v for v in updated if updated.count(v) > 1 or v in framed}
    return [i for i, v in enumerate(spec.variables) if v in used]


@pytest.mark.parametrize("gen", [twophase, lockserv],
                         ids=["twophase3", "lockserv3"])
def test_each_action_runs_once_per_read_projection(gen):
    spec = parse(gen(3))
    initials, _, ns = _compile(spec)
    probes = {}
    for k in range(len(spec.actions)):
        if "_c%d" % k in ns:
            ns["_c%d" % k] = probes[k] = _Probe()
    states = search(initials, ns["successors"])
    runs = 0
    for k, action in enumerate(spec.actions):
        read = _read_set(spec, action)
        if len(read) == len(spec.variables):
            assert k not in probes, action.name
            runs += len(states)
            continue
        projections = {tuple(c[i] for i in read) for c in states}
        assert probes[k].misses == len(projections), action.name
        assert set(probes[k]) == {p[0] if len(p) == 1 else p
                                  for p in projections}
        runs += len(projections)
    assert probes
    assert runs < len(spec.actions) * len(states) / 2


def test_builds_without_cached_actions_code_their_states(tp):
    """S1 gives twophase(3) one group per variable, so no action of any
    group's build is cached; each build codes its states all the same."""
    prop = tp.property("Consistent")
    comps = decompose(tp, prop)
    comps = [comps[i - 1] for i in total_order(comps, tp)]
    f = static_reduce(make_strategy("S1", len(comps)), comps)
    d_p, groups = build_groups(f, comps, tp)
    # the property group under err_lts, the others under to_lts
    for group, p in [(d_p, prop)] + [(g, None) for g in groups]:
        assert len(group.variables) == 1, group.name
        initials, _, ns = _compile(group, p)
        assert not any(k.startswith("_c") for k in ns), group.name
        assert initials and all(type(x) is int for c in initials for x in c)
        assert isinstance(ns["_t0"], dict), group.name
        assert isinstance(ns["_v0"], list), group.name
        states = search(initials, ns["successors"])
        assert all(type(x) is int for c in states for x in c), group.name
        decoded = {tuple(sorted(zip(group.variables,
                                    map(oc._conv, ns["decode"](c)))))
                   for c in states}
        assert decoded == oc.oracle_reach(group)[0], group.name
