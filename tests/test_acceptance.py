"""End-to-end acceptance suite.

Each test class covers one guarantee of the pipeline: verdict soundness
against the brute-force oracle, composition semantics, the decomposition
contract, reproduction of the worked two-phase-commit example, static
and dynamic reduction, ordering, state-space savings at larger sizes,
the desk-scale magnitude check, and portfolio behavior.
"""

import random

import pytest

import oracle as oc
from lts_oracle import traces_equal
from recomp import parse, decompose, total_order
from recomp import syntax as sx
from recomp.corpus import ALL, consensus, lockserv, tpcounter, twophase
from recomp.decompose import slice_spec
from recomp.engine import (HOLDS, INCONCLUSIVE, VIOLATED, comp_verify,
                           ordered_components, recomp_verify, run_portfolio)
from recomp.lts import StateBoundExceeded, compose, is_tau
from recomp.order import Strategy, dataflow_from_alphabets, make_strategy
from recomp.recompose import (P, alphabets, build_groups, interaction_sets,
                              make_map, static_reduce)
from recomp.semantics import err_lts, to_lts
from spec_helpers import normalize


# the hand-tuned two-phase commit map: components 2..4 to groups 1, 2, 1
TUNED = [(1, P), (2, 1), (3, 2), (4, 1)]


def _random_map(rng, n):
    """A uniformly shaped valid recomposition map over n components."""
    if n == 1:
        return make_map([(1, P)])
    m = rng.randint(0, n - 1)
    rest = list(range(2, n + 1))
    rng.shuffle(rest)
    pairs = [(1, P)]
    for g, i in enumerate(rest[:m], start=1):
        pairs.append((i, g))  # keep every group nonempty
    for i in rest[m:]:
        pairs.append((i, rng.choice([P] + list(range(1, m + 1)))))
    return make_map(pairs)


# ==========================================================================
# 1. soundness: every strategy agrees with the monolithic oracle


# Bump updates x and also frames it, so it is never enabled: x stays 0.
SELF_FRAMED = """MODULE SelfFramed

VARIABLES x, y

INIT
  /\\ x = 0
  /\\ y = 0

ACTION Bump(d)
  /\\ x' = 1
  /\\ UNCHANGED <<x, y>>

ACTION Flip(d)
  /\\ y' = 1
  /\\ UNCHANGED <<x>>

NEXT \\E d \\in {"a"} :
  \\/ Bump(d)
  \\/ Flip(d)

PROPERTY Zero
  x = 0
"""


def _soundness_cases():
    texts = [("twophase2", twophase(2)), ("twophase3", twophase(3)),
             ("twophase4", twophase(4)), ("twophase5", twophase(5)),
             ("lockserv3", lockserv(3)), ("consensus2", consensus(2)),
             ("selfframed", SELF_FRAMED)]
    out = []
    for mode, suffix in (("strong", ""), ("observational", "-observational")):
        for name, text in texts:
            spec = parse(text)
            for prop in spec.properties:
                out.append(pytest.param(
                    spec, prop, mode,
                    id="%s-%s%s" % (name, prop.name, suffix)))
    return out


def _replays_to_a_violation(spec, prop, witness):
    trace = [(a, oc._conv(d)) for a, d in witness]
    end = oc.oracle_replay(spec, trace)  # every step must be enabled
    return not oc.o_eval(prop.body, {**oc._consts(spec), **dict(end)})


@pytest.mark.parametrize("spec,prop,mode", _soundness_cases())
def test_verdicts_match_the_oracle(spec, prop, mode):
    expected_holds, _ = oc.oracle_check(spec, prop)
    expected = HOLDS if expected_holds else VIOLATED

    n = len(decompose(spec, prop))
    rng = random.Random(hash((spec.name, prop.name, len(spec.variables))))
    strategies = [Strategy(k) for k in ("S1", "S2", "S3", "S4")]
    strategies += [Strategy("custom", custom=_random_map(rng, n))
                   for _ in range(3)]
    for strat in strategies:
        verdict, _ = recomp_verify(spec, prop, strat, minimize_mode=mode)
        assert verdict.outcome == expected, strat.kind
        if verdict.outcome == VIOLATED and mode == "strong":
            # and the counterexample must replay on the real system
            # (observational ones may not yet: see the next test)
            assert _replays_to_a_violation(spec, prop, verdict.witness)


@pytest.mark.xfail(
    reason="observational reduction hides actions and determinizes, so "
    "a witness through a hidden step omits that step and cannot be "
    "replayed", strict=True)
def test_observational_counterexamples_replay():
    for spec in (parse(twophase(3)), parse(tpcounter(3))):
        prop = spec.property("NoPrepares")
        verdict, _ = recomp_verify(spec, prop, "S2",
                                   minimize_mode="observational")
        assert verdict.outcome == VIOLATED
        assert not any(is_tau(label) for label in verdict.witness)
        assert _replays_to_a_violation(spec, prop, verdict.witness)


# ==========================================================================
# 2. composition semantics: syntactic and LTS-level composition agree


def _rand_two_part_spec(rng, domain):
    """A random spec whose x variables and y variables no conjunct
    couples, with its x and y slices."""
    values = ["v0", "v1", "v2"]
    parts = [tuple("%s%d" % (prefix, i) for i in range(rng.randint(1, 2)))
             for prefix in "xy"]
    variables = parts[0] + parts[1]
    init = tuple(sx.Eq(sx.Name(v), sx.StrLit("v0")) for v in variables)
    actions = []
    for aname in ["A", "B", "C", "D"]:
        conjuncts, updated = [], []
        for part in parts:
            if rng.random() < 0.3:
                continue  # the action leaves this part alone
            if rng.random() < 0.5:
                conjuncts.append(sx.Eq(sx.Name(rng.choice(part)),
                                       sx.StrLit(rng.choice(values))))
            updated += [v for v in part if rng.random() < 0.7]
        if rng.random() < 0.3:
            conjuncts.append(sx.Eq(sx.Name("d"), sx.StrLit("a")))
        for v in updated:
            conjuncts.append(sx.Eq(sx.Prime(v), sx.StrLit(rng.choice(values))))
        if not conjuncts:
            continue  # a pure stutter is in no slice
        framed = tuple(v for v in variables if v not in updated)
        if framed:
            conjuncts.append(sx.Unchanged(framed))
        actions.append(sx.ActionDef(aname, "d", tuple(conjuncts)))
    spec = sx.SpecAst(name="R", constants=(), variables=variables,
                      init=init, actions=tuple(actions), next_var="d",
                      next_domain=domain)
    return spec, [slice_spec(spec, part) for part in parts]


def test_composition_agrees_on_random_spec_pairs():
    rng = random.Random(1106)
    domain = sx.SetLit((sx.StrLit("a"), sx.StrLit("b")))
    for _ in range(50):
        spec, (s, t) = _rand_two_part_spec(rng, domain)
        algebraic = compose(to_lts(s), to_lts(t))
        assert traces_equal(to_lts(spec), algebraic, 8)


def _decomposition_groups():
    """(group, its parts): the left-fold pairs of each decomposition,
    and every group of two or more parts that S1-S3 and, on four
    components, the tuned map build."""
    out = []
    for name, gen in sorted(ALL.items()):
        spec = parse(gen())
        for prop in spec.properties:
            comps = decompose(spec, prop)
            acc = comps[0]
            for nxt in comps[1:]:
                parts = [acc, nxt]
                acc, _ = build_groups(make_map([(1, P), (2, P)]), parts, spec)
                out.append(pytest.param(acc, parts, id="%s-%s-%s" % (
                    name, prop.name, nxt.name)))
            comps = ordered_components(spec, prop)
            maps = [(kind, make_strategy(kind, len(comps)))
                    for kind in ("S1", "S2", "S3")]
            if len(comps) == 4:
                maps.append(("tuned", make_map(TUNED)))
            for kind, f in maps:
                f = static_reduce(f, comps)
                d_p, groups = build_groups(f, comps, spec)
                for g, group in zip([P] + list(range(1, f.m + 1)),
                                    [d_p] + groups):
                    parts = [comps[j - 1] for j, h in f.assignment if h == g]
                    if len(parts) > 1:
                        out.append(pytest.param(group, parts, id="%s-%s-%s-%s"
                                                % (name, prop.name, kind, g)))
    return out


@pytest.mark.parametrize("group,parts", _decomposition_groups())
def test_composition_agrees_on_corpus_decompositions(group, parts):
    try:
        lts = [to_lts(p, bound=50_000) for p in parts]
        syntactic = to_lts(group, bound=200_000)
    except StateBoundExceeded:
        pytest.skip("component has no finite state graph at this bound")
    algebraic = lts[0]
    for l in lts[1:]:
        algebraic = compose(algebraic, l)
    assert traces_equal(syntactic, algebraic, 8)


# ==========================================================================
# 3. decomposition contract


@pytest.mark.parametrize("name", sorted(ALL))
def test_decomposition_contract(name):
    spec = parse(ALL[name]())
    for prop in spec.properties:
        comps = decompose(spec, prop)
        every = [v for c in comps for v in c.variables]
        assert normalize(slice_spec(spec, every)) == normalize(spec)
        assert sx.free_vars(spec, prop.body) <= set(comps[0].variables)


# ==========================================================================
# 4. the worked two-phase-commit example


def test_worked_example_decomposition_and_order(tp3):
    prop = tp3.property("Consistent")
    comps = decompose(tp3, prop)
    assert {frozenset(c.variables) for c in comps} == {
        frozenset({"rmState"}), frozenset({"msgs"}),
        frozenset({"tmState"}), frozenset({"tmPrepared"})}
    assert set(comps[0].variables) == {"rmState"}

    by_var = {c.variables[0]: i + 1 for i, c in enumerate(comps)}
    dfo = dataflow_from_alphabets([sx.symbolic_actions(c) for c in comps])
    assert dfo.e_sets == (
        frozenset({by_var["rmState"]}),
        frozenset({by_var["msgs"]}),
        frozenset({by_var["tmState"], by_var["tmPrepared"]}),
    )

    perm = total_order(comps, tp3)
    assert [comps[i - 1].variables[0] for i in perm] == [
        "rmState", "msgs", "tmPrepared", "tmState"]


# ==========================================================================
# 5. static reduction


def test_unbounded_counter_is_reduced_away():
    spec = parse(tpcounter(3))
    prop = spec.property("Consistent")
    v1, _ = recomp_verify(spec, prop, "S1")
    assert v1.outcome == HOLDS
    for bound in (10_000, 100_000):
        v4, _ = recomp_verify(spec, prop, "S4", bound=bound)
        assert v4.outcome == INCONCLUSIVE
        assert v4.reason == "bound-exceeded"


def test_reduction_fixpoint_converges_and_drops_the_counter():
    spec = parse(tpcounter(3))
    comps = ordered_components(spec, spec.property("Consistent"))
    x_sets = interaction_sets(alphabets(comps))
    assert x_sets[2] == x_sets[3]
    counter = next(i + 1 for i, c in enumerate(comps)
                   if "counter" in c.variables)
    assert counter not in x_sets[-1]


@pytest.mark.parametrize("name", sorted(set(ALL) - {"tpcounter"}))
def test_reduction_never_changes_a_verdict(name):
    spec = parse(ALL[name]())
    for prop in spec.properties:
        comps = ordered_components(spec, prop)
        for kind in ("S1", "S2", "S3"):
            with_r, _ = recomp_verify(spec, prop, kind)
            f = make_strategy(kind, len(comps))
            without, _ = comp_verify(*build_groups(f, comps, spec), prop)
            assert with_r.outcome == without.outcome


# ==========================================================================
# 6. the ordering carries exactly the non-reducible components


def _interaction_fixpoint(alpha):
    # written out independently of the implementation under test
    x = {1}
    while True:
        joint = set()
        for i in x:
            joint |= set(alpha[i - 1])
        nxt = x | {j for j in range(1, len(alpha) + 1)
                   if set(alpha[j - 1]) & joint}
        if nxt == x:
            return x
        x = nxt


def test_order_covers_the_interaction_fixpoint_on_the_corpus():
    for name, gen in sorted(ALL.items()):
        spec = parse(gen())
        for prop in spec.properties:
            comps = decompose(spec, prop)
            alpha = [sx.symbolic_actions(c) for c in comps]
            dfo = dataflow_from_alphabets(alpha)
            assert dfo.covers() == _interaction_fixpoint(alpha)


def test_order_covers_the_interaction_fixpoint_on_random_instances():
    rng = random.Random(1907)
    pool = ["A", "B", "C", "D", "E", "F", "G", "H"]
    for _ in range(200):
        n = rng.randrange(2, 8)
        alpha = [rng.sample(pool, rng.randrange(1, 5)) for _ in range(n)]
        dfo = dataflow_from_alphabets(alpha)
        assert dfo.covers() == _interaction_fixpoint(alpha)


# ==========================================================================
# 7. short-circuiting never flips a verdict


def test_early_holds_confirmed_by_the_oracle():
    cases = []
    for name, gen in sorted(ALL.items()):
        spec = parse(gen())
        for prop in spec.properties:
            for kind in ("S1", "S2", "S3"):
                verdict, stats = recomp_verify(spec, prop, kind)
                if verdict.outcome == HOLDS and stats.k < stats.m:
                    cases.append((name, spec, prop, kind))
    assert cases  # the corpus must exercise dynamic reduction somewhere
    for name, spec, prop, kind in cases:
        assert oc.oracle_check(spec, prop)[0], (name, prop.name, kind)


# ==========================================================================
# 8. state-space savings at growing sizes


def test_recomposition_shrinks_the_state_space():
    ratios = {}
    for n in (5, 6, 7):
        spec = parse(twophase(n))
        prop = spec.property("Consistent")
        mono, _ = recomp_verify(spec, prop, "S4")
        assert mono.outcome == HOLDS
        # S4 counts one state per orbit under the permutations of RMs;
        # the baseline is the whole system, every permutation counted
        whole = err_lts(spec, prop).n_states
        best = None
        for kind in ("S1", "S2"):
            verdict, stats = recomp_verify(spec, prop, kind)
            assert verdict.outcome == HOLDS
            if best is None or stats.max_states < best:
                best = stats.max_states
        assert best < whole
        ratios[n] = whole / best
    assert ratios[7] >= 10


# ==========================================================================
# 9. desk-scale magnitude check (ten resource managers, tuned map)


@pytest.fixture(scope="module")
def ten_rm_run():
    spec = parse(twophase(10))
    prop = spec.property("Consistent")
    f = make_map(TUNED)
    verdict, stats = recomp_verify(spec, prop, Strategy("custom", custom=f),
                                   minimize_mode="observational")
    return verdict, stats


def test_ten_rm_run_completes_with_small_property_group(ten_rm_run):
    verdict, stats = ten_rm_run
    assert verdict.outcome == HOLDS
    d_p_stage = stats.stages[0]
    assert d_p_stage.minimized <= 2 * 13_291


def test_ten_rm_peak_state_count_within_tolerance(ten_rm_run):
    _, stats = ten_rm_run
    assert stats.max_states <= 2 * 481_550


# ==========================================================================
# 10. portfolio behavior


def test_portfolio_beats_the_monolithic_backstop():
    spec = parse(tpcounter(3))
    prop = spec.property("Consistent")
    verdict, stats, winner = run_portfolio(
        spec, prop, ["S1", "S2", "S3", "S4"], workers=4, timeout=120)
    assert verdict.outcome == HOLDS
    assert winner is not None and winner.kind != "S4"


def test_monolithic_alone_cannot_finish_the_counter():
    spec = parse(tpcounter(3))
    prop = spec.property("Consistent")
    verdict, _, winner = run_portfolio(spec, prop, ["S4"], workers=1,
                                       bound=30_000)
    assert verdict.outcome == INCONCLUSIVE
    assert winner is None
