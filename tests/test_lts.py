"""LTS algebra: composition, reachability, minimization, trace oracles."""

import random
import sys

import pytest

from lts_oracle import (bisimilar, branching_minimize, lts_from_edges,
                        refine, shortest_pi_trace, strong_minimize,
                        tau_closures, trace_set, traces_equal, weak_minimize,
                        weak_subsets, weak_words, weakly_bisimilar)
from recomp.lts import (_POLL_EVERY, _SEARCH_SLACK, Cancelled,
                        StateBoundExceeded, Unbuilt, _branching_refine,
                        _poller, _refine, compose, determinize, explore,
                        hide_labels, is_tau, minimize, pi_reachable,
                        pi_trace)

LABELS = [("A", None), ("B", None), ("C", None), ("D", None)]


def rand_lts(rng, max_states=5, with_pi=False, alphabet=None):
    n = rng.randrange(1, max_states + 1)
    if alphabet is None:
        alphabet = rng.sample(LABELS, rng.randrange(2, len(LABELS) + 1))
    pi = None
    if with_pi:
        pi = n
        n += 1
    edges = []
    for s in range(n):
        for l in range(len(alphabet)):
            if s == pi:
                edges.append((s, l, pi))  # absorbing
            elif rng.random() < 0.5:
                edges.append((s, l, rng.randrange(n)))
    initials = [0]
    return lts_from_edges(n, alphabet, edges, initials, pi)


def test_from_edges_layout():
    l = lts_from_edges(3, LABELS[:2], [(0, 0, 1), (0, 1, 2), (1, 0, 0)], [0])
    assert sorted(l.out(0)) == [(0, 1), (1, 2)]
    assert list(l.out(2)) == []
    assert l.n_edges == 3


def _counter(key):
    # A: k -> k + 1, B: k -> 2k, over 0..7
    if key < 7:
        yield 0, key + 1
    if 0 < key < 4:
        yield 1, 2 * key


def test_explore_appends_rows_in_discovery_order_with_pi_last():
    l = explore([0], _counter, LABELS[:2], lambda k: k == 4)
    # keys 0, 1, 2, 3, 6, 7 in discovery order, then pi for key 4
    assert (l.n_states, l.pi, l.initials) == (7, 6, (0,))
    assert list(l.offsets) == [0, 1, 3, 5, 7, 8, 8, 10]
    assert list(l.labels) == [0, 0, 1, 0, 1, 0, 1, 0, 0, 1]
    assert list(l.dsts) == [1, 2, 2, 3, 6, 6, 4, 5, 6, 6]


def test_explore_can_stop_at_the_first_edge_into_pi():
    l = explore([0], _counter, LABELS[:2], lambda k: k == 4,
                stop_at_pi=True)
    assert (l.n_states, l.pi) == (5, 4)
    assert list(l.offsets) == [0, 1, 3, 5, 5, 7]
    assert list(l.dsts) == [1, 2, 2, 3, 4, 4, 4]
    assert pi_trace(l) == (LABELS[0], LABELS[0], LABELS[1])


def test_explore_respects_bound():
    with pytest.raises(StateBoundExceeded):
        explore([0], _counter, LABELS[:2], lambda k: False, bound=7)
    assert explore([0], _counter, LABELS[:2], lambda k: False,
                   bound=8).n_states == 8


def test_pi_trace_matches_a_breadth_first_search():
    # on what explore builds, walking back the discovering edges gives
    # the search's own witness, and pi is present exactly when reachable
    rng = random.Random(13)
    found = {True: 0, False: 0}
    for _ in range(300):
        err, other = rand_lts(rng, 4, with_pi=True), rand_lts(rng, 4)
        c = compose(err, other) if rng.random() < 0.5 else compose(other, err)
        hide = set(rng.sample(c.alphabet, rng.randrange(len(c.alphabet))))
        for l in (c, minimize(c), minimize(c, hide)):
            expected = shortest_pi_trace(l)
            assert pi_trace(l) == expected
            assert pi_reachable(l) == (expected is not None)
            found[expected is not None] += 1
    assert min(found.values()) >= 100
    pi_initial = lts_from_edges(1, LABELS[:1], [], [0], pi=0)
    assert pi_trace(pi_initial) == shortest_pi_trace(pi_initial) == ()


def test_unit_is_identity():
    rng = random.Random(7)
    unit = lts_from_edges(1, (), [], [0])  # one state, empty alphabet
    for _ in range(20):
        l = rand_lts(rng)
        assert bisimilar(compose(unit, l), l)
        assert bisimilar(compose(l, unit), l)


def test_compose_commutative_up_to_bisimulation():
    rng = random.Random(8)
    for _ in range(30):
        a, b = rand_lts(rng), rand_lts(rng)
        assert bisimilar(compose(a, b), compose(b, a))


def test_compose_associative_up_to_bisimulation():
    rng = random.Random(9)
    for _ in range(20):
        a, b, c = (rand_lts(rng, 4) for _ in range(3))
        assert bisimilar(compose(compose(a, b), c), compose(a, compose(b, c)))


def test_compose_synchronizes_shared_and_interleaves_rest():
    # a: A then B; b: B then C; shared B must wait for both
    a = lts_from_edges(3, [("A", None), ("B", None)],
                       [(0, 0, 1), (1, 1, 2)], [0])
    b = lts_from_edges(3, [("B", None), ("C", None)],
                       [(0, 0, 1), (1, 1, 2)], [0])
    c = compose(a, b)
    traces = trace_set(c, 3)
    assert (("A", None), ("B", None), ("C", None)) in traces
    assert (("B", None),) not in traces  # B blocked until A happened
    assert (("C", None),) not in traces  # C blocked until B happened


def test_pi_collapses_and_absorbs():
    err = lts_from_edges(2, [("A", None)], [(0, 0, 1), (1, 0, 1)], [0], pi=1)
    other = lts_from_edges(2, [("A", None), ("B", None)],
                           [(0, 0, 1), (0, 1, 0)], [0])
    c = compose(err, other)
    assert c.pi is not None
    assert pi_reachable(c)
    # absorbing: every alphabet letter self-loops on pi
    assert sorted(c.out(c.pi)) == [(lab, c.pi)
                                   for lab in range(len(c.alphabet))]


def test_compose_respects_bound():
    a = lts_from_edges(3, [("A", None)], [(0, 0, 1), (1, 0, 2)], [0])
    b = lts_from_edges(3, [("B", None)], [(0, 0, 1), (1, 0, 2)], [0])
    with pytest.raises(StateBoundExceeded):
        compose(a, b, bound=2)


def test_compose_splits_only_the_group_rows_it_reaches():
    """The group's state 1 holds 4,096 edges, but only a shared label the
    other operand never takes leads there, so the product never reaches
    it: composing reads no row long enough to poll `cancel`, where
    splitting every row up front would poll four times."""
    polls = []

    class Counting:
        def is_set(self):
            polls.append(1)
            return False

    a = lts_from_edges(1, [("S", None)], [], [0])
    b = lts_from_edges(2, [("S", None), ("B", None)],
                       [(0, 0, 1)] + [(1, 1, 1)] * 4096, [0])
    for x, y in ((a, b), (b, a)):
        out = compose(x, y, cancel=Counting())
        assert (out.n_states, out.n_edges) == (1, 0)
    assert polls == []


def _unbuilt(l):
    """l as an `Unbuilt` system whose keys are l's states, shifted so
    that the numbering `Unbuilt` gives them differs from l's."""
    return Unbuilt([s + 100 for s in l.initials],
                   lambda k: [(lab, t + 100) for lab, t in l.out(k - 100)],
                   l.alphabet)


def test_unbuilt_numbers_keys_as_first_seen():
    u = Unbuilt(["b", "a"], lambda k: [(0, "c"), (1, "a")], [("A", None),
                                                              ("B", None)])
    assert (u.initials, u.keys) == ((0, 1), ["b", "a"])
    assert u.row(1) == [(0, 2), (1, 1)]
    assert (u.n_states, u.keys) == (3, ["b", "a", "c"])


def test_compose_searches_an_unbuilt_operand_up_to_pi():
    """Against the product with the built operand: the same verdict and a
    shortest witness of the same length, or the same product when pi is
    out of reach; unless the search gave up."""
    rng = random.Random(12)
    searched = 0
    for _ in range(200):
        a, b = rand_lts(rng, 4, with_pi=True), rand_lts(rng, 5)
        full = compose(a, b)
        out = compose(a, _unbuilt(b))
        if out is None:
            continue
        searched += 1
        assert pi_reachable(out) == pi_reachable(full)
        if pi_reachable(full):
            assert len(pi_trace(out)) == len(pi_trace(full))
            assert out.n_states <= full.n_states
        else:
            assert (out.n_states, out.n_edges) == (full.n_states,
                                                   full.n_edges)
    assert searched == 200  # too small to give up


def test_compose_gives_up_once_the_product_outgrows_the_unbuilt_operand():
    """A product that expands more states than the unbuilt operand has
    numbered, plus `_SEARCH_SLACK`, returns None; one state fewer, and
    the search runs to the end.  A search past the bound returns None
    too, where the product with the built operand raises."""
    b = lts_from_edges(1, [("B", None)], [], [0])
    for n, gives_up in ((_SEARCH_SLACK + 2, True),
                        (_SEARCH_SLACK + 1, False)):
        # a: a chain of n states on A, which b does not name
        a = lts_from_edges(n, [("A", None)],
                           [(s, 0, s + 1) for s in range(n - 1)], [0])
        out = compose(a, _unbuilt(b))
        assert (out is None) == gives_up
        if out is not None:
            assert out.n_states == n
    with pytest.raises(StateBoundExceeded):
        compose(a, b, bound=n - 1)
    assert compose(a, _unbuilt(b), bound=n - 1) is None


def test_two_pi_operands_rejected():
    rng = random.Random(11)
    a = rand_lts(rng, 3, with_pi=True)
    b = rand_lts(rng, 3, with_pi=True)
    with pytest.raises(ValueError):
        compose(a, b)


def test_minimize_strong_preserves_bisimilarity():
    rng = random.Random(12)
    for _ in range(30):
        l = rand_lts(rng, 6, with_pi=rng.random() < 0.3)
        m = minimize(l)
        assert m.n_states <= l.n_states
        assert bisimilar(l, m)
        assert pi_reachable(m) == (shortest_pi_trace(l) is not None)
        # idempotent
        assert minimize(m).n_states == m.n_states


def test_minimize_merges_duplicate_states():
    # two states with identical behavior collapse to one
    l = lts_from_edges(3, [("A", None)],
                       [(0, 0, 1), (0, 0, 2)], [0])
    m = minimize(l)
    assert m.n_states == 2


def _strong_draw(rng):
    """A small LTS for strong minimization: half the draws from
    `rand_lts` (pi last and absorbing, when present), the rest by hand,
    with pi anywhere, self-loops, duplicate edges and several initial
    states, which can leave states unreachable."""
    if rng.random() < 0.5:
        return rand_lts(rng, 6, with_pi=rng.random() < 0.5)
    n = rng.randrange(1, 9)
    alphabet = LABELS[:rng.randrange(1, len(LABELS) + 1)]
    pi = rng.choice([None, rng.randrange(n)])
    edges = [(s, rng.randrange(len(alphabet)), rng.randrange(n))
             for s in range(n) for _ in range(rng.randrange(4))]
    edges += rng.sample(edges, rng.randrange(len(edges) + 1))
    rng.shuffle(edges)
    initials = sorted(rng.sample(range(n), rng.randrange(1, min(n, 2) + 1)))
    return lts_from_edges(n, alphabet, edges, initials, pi)


def _reachable(l):
    seen = set(l.initials)
    stack = list(seen)
    while stack:
        for _, t in l.out(stack.pop()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def test_strong_refinement_matches_the_oracle():
    # the int-coded edge keys give the oracle's partition over (label,
    # target) pairs, numbered alike, also from seeds whose ids are not
    # dense; and the quotient is the oracle's, array for array.  Without
    # tau, branching refinement gives that partition too, numbered
    # alike, which is why `minimize` may take `_refine` there
    rng = random.Random(19)
    draws = 1500
    seen = dict.fromkeys(("pi inside", "self-loop", "duplicate",
                          "unreachable"), 0)
    for _ in range(draws):
        l = _strong_draw(rng)
        n = l.n_states
        rows = [list(l.out(s)) for s in range(n)]
        seeds = ([1 if s == l.pi else 0 for s in range(n)],
                 [rng.choice((0, 3, 7)) for _ in range(n)])
        for seed in seeds:
            assert _refine(l, seed) == refine(n, rows, seed)
            assert _branching_refine(l, seed) == _refine(l, seed)
        assert _layout(minimize(l)) == _layout(strong_minimize(l))
        seen["pi inside"] += l.pi is not None and l.pi < n - 1
        seen["self-loop"] += any(s == t for s in range(n)
                                 for _, t in rows[s])
        seen["duplicate"] += any(len(set(row)) < len(row) for row in rows)
        seen["unreachable"] += len(_reachable(l)) < n
    assert min(seen.values()) >= draws // 10, seen


def test_strong_minimize_polls_while_coding_the_edges():
    """One state with 10 x `_POLL_EVERY` self-loops: the edge keys are
    built in slices of `_POLL_EVERY` edges with a poll after each, so
    refinement polls at least ten times, where a poll per state's
    signature would poll once; the quotient codes the edges again."""
    polls = []

    class Counting:
        def is_set(self):
            polls.append(1)
            return False

    l = lts_from_edges(1, LABELS[:1], [(0, 0, 0)] * (10 * _POLL_EVERY), [0])
    assert _refine(l, [0], Counting()) == [0]
    assert len(polls) >= 10
    del polls[:]
    m = minimize(l, cancel=Counting())
    assert (m.n_states, list(m.out(0))) == (1, [(0, 0)])
    assert len(polls) >= 20


def test_quotient_keeps_reachable_blocks_with_pi_last():
    # 0 -A-> 1 -A-> pi (state 2, without its self-loops); 3 and 4 are
    # unreachable and differ from every reachable state.  Hiding B, which
    # only they step by, puts the branching kernel on the same system
    l = lts_from_edges(5, LABELS[:2],
                       [(0, 0, 1), (1, 0, 2), (3, 1, 4), (4, 1, 3)],
                       [0], pi=2)
    for m in (minimize(l), minimize(l, {LABELS[1]})):
        assert (m.n_states, m.pi, m.initials) == (3, 2, (0,))
        assert list(m.out(0)) == [(0, 1)]
        assert list(m.out(1)) == [(0, 2)]
        assert list(m.out(m.pi)) == [(0, 2), (1, 2)]


def test_observational_minimize_collapses_internal_steps():
    # s0 -B-> s1 -A-> s2 with B hidden: s0 and s1 are weakly equivalent
    l = lts_from_edges(3, [("A", None), ("B", None)],
                       [(0, 1, 1), (1, 0, 2)], [0])
    m = minimize(l, {("B", None)})
    assert m.n_states == 2
    # with nothing hidden (strong minimization) they stay apart
    assert minimize(l).n_states == 3


def _weak_draw(rng):
    """A small LTS for observational minimization, built by hand: an
    explicit tau label in some alphabets, several initial states, and pi
    (in some draws) anywhere, absorbing, without edges, or with edges
    out of it that can put it on a tau cycle.  Returns it with the set
    of labels to hide: none, all, or a random subset."""
    n = rng.randrange(1, 10)
    alphabet = LABELS[:rng.randrange(1, len(LABELS) + 1)]
    if rng.random() < 0.25:
        alphabet = alphabet + [("τ", -1)]
    pi = rng.choice([None, rng.randrange(n)])
    pi_kind = rng.choice(["absorbing", "bare", "free", "free"])
    edges = []
    for s in range(n):
        if s == pi and pi_kind == "absorbing":
            edges.extend((s, lab, s) for lab in range(len(alphabet)))
            continue
        if s == pi and pi_kind == "bare":
            continue
        for _ in range(rng.randrange(5)):
            # bias towards backward edges, which close tau cycles
            t = rng.randrange(s + 1) if rng.random() < 0.6 else rng.randrange(n)
            edges.append((s, rng.randrange(len(alphabet)), t))
    rng.shuffle(edges)
    initials = sorted(rng.sample(range(n), rng.randrange(1, min(n, 3) + 1)))
    named = [lab for lab in alphabet if not is_tau(lab)]
    hide = rng.choice([set(), set(named),
                       set(rng.sample(named, rng.randrange(len(named) + 1)))])
    return lts_from_edges(n, alphabet, edges, initials, pi), hide


def _layout(l):
    """Every array of an LTS, with each tau label's counter dropped."""
    alphabet = tuple(("τ",) if is_tau(lab) else lab for lab in l.alphabet)
    return (l.n_states, alphabet, list(l.offsets), list(l.labels),
            list(l.dsts), l.initials, l.pi)


def test_observational_minimize_matches_the_branching_oracle():
    # the tau-SCC refinement gives the quotient that branching signatures
    # over explicit inert tau paths give, array for array; that quotient
    # is weakly bisimilar to its input and no smaller than the weak one
    rng = random.Random(18)
    draws = 2500
    cycles = pi_on_cycle = hide_all = hide_none = 0
    for _ in range(draws):
        l, hide = _weak_draw(rng)
        m = minimize(l, hide)
        assert _layout(m) == _layout(branching_minimize(l, hide))
        assert weakly_bisimilar(hide_labels(l, hide), m)
        assert m.n_states >= weak_minimize(l, hide).n_states
        closures = tau_closures(hide_labels(l, hide))
        on_cycle = {s for s in range(l.n_states)
                    if any(s in closures[u] for u in closures[s] if u != s)}
        cycles += bool(on_cycle)
        pi_on_cycle += l.pi in on_cycle
        named = {lab for lab in l.alphabet if not is_tau(lab)}
        hide_all += bool(named) and hide == named
        hide_none += not hide
    assert cycles >= draws // 6  # a fifth of the draws, with this seed
    assert min(pi_on_cycle, hide_all, hide_none) >= 50


def test_observational_minimize_is_branching_not_weak():
    # 0 -A-> 1, 1 -D-> 2, 1 -C-> 3, 2 -B-> 3, and 4 -A-> 1, 4 -A-> 2,
    # with D hidden: weakly 4 ~ 0 (4's step to 2 is matched by A then
    # tau), but not in the branching sense, where 2 would have to be
    # equivalent to 1
    l = lts_from_edges(5, LABELS,
                       [(0, 0, 1), (1, 3, 2), (1, 2, 3), (2, 1, 3),
                        (4, 0, 1), (4, 0, 2)], [0, 4])
    hide = {("D", None)}
    m = minimize(l, hide)
    assert _layout(m) == _layout(branching_minimize(l, hide))
    assert (m.n_states, weak_minimize(l, hide).n_states) == (5, 4)


def test_observational_keeps_pi_separate():
    l = lts_from_edges(2, [("A", None)], [(0, 0, 1), (1, 0, 1)], [0], pi=1)
    m = minimize(l, {("A", None)})
    assert m.pi is not None
    assert pi_reachable(m)


def test_determinize_keeps_the_weak_traces_and_pi():
    # on hidden random LTSs and their branching quotients: a
    # deterministic, strongly minimal automaton over the visible labels
    # whose words up to length 4 are the input's weak words, each
    # reaching pi exactly when the input can; or the input itself, when
    # its tau-closed subsets without pi outnumber its other states
    rng = random.Random(21)
    draws = 1500
    seen = {"capped": 0, "kept": 0, "pi reached": 0, "shrunk": 0}
    for _ in range(draws):
        l, hide = _weak_draw(rng)
        for h in (hide_labels(l, hide), minimize(l, hide)):
            d = determinize(h)
            if len(weak_subsets(h)) > h.n_states - (h.pi is not None):
                assert d is h
                seen["capped"] += 1
                continue
            assert d.alphabet == tuple(lab for lab in h.alphabet
                                       if not is_tau(lab))
            for s in range(d.n_states):
                row = [lab for lab, _ in d.out(s)]
                assert len(row) == len(set(row))
            assert weak_words(d, 4) == weak_words(h, 4)
            assert pi_reachable(d) == (shortest_pi_trace(h) is not None)
            assert minimize(d).n_states == d.n_states
            seen["kept"] += 1
            seen["pi reached"] += pi_reachable(d)
            seen["shrunk"] += d.n_states < h.n_states
    assert min(seen.values()) >= draws // 20, seen


def test_determinize_returns_its_input_past_the_cap():
    # "the fourth label from the end is A", with a tau step after that
    # A: 6 states, and 2 ** 4 subsets, one per choice of which of the
    # last four labels were A
    edges = [(0, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 2), (2, 0, 3),
             (2, 1, 3), (3, 0, 4), (3, 1, 4), (4, 0, 5), (4, 1, 5)]
    l = lts_from_edges(6, LABELS[:2] + [("τ", -1)], edges, [0])
    assert len(weak_subsets(l)) == 16
    assert determinize(l) is l
    # "the last label is A": 2 subsets of 3 states, and every word is
    # admitted, so one state is left
    short = lts_from_edges(3, l.alphabet, edges[:4], [0])
    assert len(weak_subsets(short)) == 2
    assert determinize(short).n_states == 1


def test_determinize_polls_in_each_of_its_passes():
    """A tau chain of 4 x `_POLL_EVERY` states, each also stepping by A
    to the last, which admits every word of A's: the tau-SCC search, the
    closure pass and the step pass each read all its edges, one fewer
    than 8 x `_POLL_EVERY`, and the search reads the steps of the first subset's 4 x
    `_POLL_EVERY` members.  Each polls once per
    `_POLL_EVERY` of them; a set token stops it with `Cancelled`."""
    k = 4 * _POLL_EVERY
    edges = [(s, 1, s + 1) for s in range(k - 1)]
    edges += [(s, 0, k - 1) for s in range(k)]
    l = lts_from_edges(k, [("A", None), ("τ", -1)], edges, [0])
    polls = {}

    class ByPass:
        def is_set(self):
            frame = sys._getframe(2)  # past the poller's `spend`
            name = frame.f_code.co_name
            if name == "determinize":
                name = "step" if "steps" in frame.f_locals else "closure"
            polls[name] = polls.get(name, 0) + 1
            return False

    d = determinize(l, ByPass())
    assert (d.n_states, list(d.out(0))) == (1, [(0, 0)])
    for name in ("_tau_sccs", "closure", "step"):
        assert polls[name] >= l.n_edges // _POLL_EVERY, name
    assert polls["successors"] >= k // _POLL_EVERY

    class Set:
        def is_set(self):
            return True

    with pytest.raises(Cancelled):
        determinize(l, Set())


class _Counting:
    """A cancel token that counts its polls, and is set once `set` is."""

    def __init__(self, set=False):
        self.polls = 0
        self.set = set

    def is_set(self):
        self.polls += 1
        return self.set


def test_poller_polls_once_per_budget():
    token = _Counting()
    spend = _poller(token)
    for _ in range(3 * _POLL_EVERY - 1):
        spend(1)
    assert token.polls == 2
    spend(1)
    assert token.polls == 3
    spend(0)
    assert token.polls == 3
    # None never cancels
    _poller(None)(10 * _POLL_EVERY)


def test_poller_catches_up_after_a_large_spend():
    """One spend of 3 x `_POLL_EVERY` polls on that call and on each of
    the next two, whatever they spend, then once per `_POLL_EVERY`."""
    token = _Counting()
    spend = _poller(token)
    spend(3 * _POLL_EVERY)
    assert token.polls == 1
    spend(1)
    spend(1)
    assert token.polls == 3
    for _ in range(_POLL_EVERY - 3):
        spend(1)
    assert token.polls == 3
    spend(1)
    assert token.polls == 4


def test_poller_raises_on_a_set_token():
    token = _Counting(set=True)
    spend = _poller(token)
    spend(_POLL_EVERY - 1)
    assert token.polls == 0
    with pytest.raises(Cancelled):
        spend(1)
    assert token.polls == 1


def test_hide_labels_uses_fresh_tau():
    l = lts_from_edges(2, LABELS[:2], [(0, 0, 1), (0, 1, 1)], [0])
    h1 = hide_labels(l, {LABELS[0]})
    h2 = hide_labels(l, {LABELS[0]})
    t1 = [lab for lab in h1.alphabet if lab[0] == "τ"]
    t2 = [lab for lab in h2.alphabet if lab[0] == "τ"]
    assert t1 and t2 and t1 != t2  # never synchronizes across systems


def test_trace_set_with_stuttering_super_alphabet():
    l = lts_from_edges(2, [("A", None)], [(0, 0, 1)], [0])
    traces = trace_set(l, 2, alphabet=[("A", None), ("Z", None)])
    assert (("Z", None), ("A", None)) in traces
    assert (("A", None), ("A", None)) not in traces


def test_traces_equal_agrees_with_trace_sets():
    rng = random.Random(14)
    for _ in range(40):
        a, b = rand_lts(rng, 4), rand_lts(rng, 4)
        alpha = sorted(set(a.alphabet) | set(b.alphabet))
        expected = (trace_set(a, 4, alpha) == trace_set(b, 4, alpha))
        assert traces_equal(a, b, 4, alphabet=alpha) == expected


def test_bisimilar_is_symmetric_and_reflexive():
    rng = random.Random(15)
    for _ in range(20):
        a, b = rand_lts(rng, 4), rand_lts(rng, 4)
        assert bisimilar(a, a)
        assert bisimilar(a, b) == bisimilar(b, a)


def test_bisimilar_implies_trace_equal():
    # over a common alphabet (with differing alphabets, stuttering on
    # out-of-alphabet actions breaks the implication by design)
    rng = random.Random(16)
    hits = 0
    for _ in range(80):
        a = rand_lts(rng, 3, alphabet=LABELS[:2])
        b = rand_lts(rng, 3, alphabet=LABELS[:2])
        if bisimilar(a, b):
            hits += 1
            assert traces_equal(a, b, 5)
    assert hits > 0


def test_pi_in_a_disconnected_part_is_unreachable():
    l = lts_from_edges(4, [("A", None)], [(0, 0, 1), (2, 0, 3), (3, 0, 3)],
                       [0], pi=3)
    assert shortest_pi_trace(l) is None
    # explore adds pi only once reached, so what it builds from l has
    # none, with either kernel
    for m in (minimize(l), minimize(l, {("A", None)})):
        assert not pi_reachable(m)
    assert not pi_reachable(compose(l, lts_from_edges(1, (), [], [0])))


def test_compose_folds_left_from_the_unit():
    rng = random.Random(17)
    parts = [rand_lts(rng, 3) for _ in range(3)]
    folded = lts_from_edges(1, (), [], [0])
    for p in parts:
        folded = compose(folded, p)
    manual = compose(compose(parts[0], parts[1]), parts[2])
    assert bisimilar(folded, manual)
