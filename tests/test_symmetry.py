"""Symmetry reduction in the whole-system search: `err_reach` (S4)
explores one state per orbit under the permutations of a CONFIG set that
the spec names only through the set.  Its verdicts agree with the
oracle, its witnesses replay, also on renamed text, its count is the
brute-force orbit count, and a set whose strings occur anywhere else is
not reduced."""

import itertools
import random
from functools import lru_cache

import pytest

import oracle as oc
from recomp import parse, recomp_verify
from recomp.corpus import ALL, lockserv, twophase
from recomp.engine import HOLDS, INCONCLUSIVE, VIOLATED
from recomp.semantics import err_lts, err_reach, symmetric_sets


@lru_cache(maxsize=None)
def _oracle_states(name, n):
    """The oracle's reachable states of a corpus model."""
    return oc.oracle_reach(parse(ALL[name](n)))[0]


def _set_strings(spec):
    """The strings of the spec's one CONFIG set."""
    (_, value), = spec.config
    return [x for _, x in value[1]]


def _renamed(text, rng):
    """The text with the strings of its CONFIG set replaced by fresh
    tokens in a shuffled order."""
    old = _set_strings(parse(text))
    new = ["x%d" % i for i in range(len(old))]
    rng.shuffle(new)
    for a, b in zip(old, new):
        assert '"%s"' % b not in text
        text = text.replace('"%s"' % a, '"%s"' % b)
    return text


def _assert_replays(spec, prop, witness):
    end = oc.oracle_replay(spec, [(a, oc._conv(d)) for a, d in witness])
    assert not oc.o_eval(prop.body, {**oc._consts(spec), **dict(end)})


def _assert_agrees_with_oracle(spec, prop, states):
    """S4's (verdict, stats), checked against the oracle's reachable
    `states`; a witness replays and is as short as the oracle's."""
    verdict, stats = recomp_verify(spec, prop, "S4")
    consts = oc._consts(spec)
    holds = all(oc.o_eval(prop.body, {**consts, **dict(q)}) for q in states)
    if holds:
        assert verdict.outcome == HOLDS
    else:
        assert verdict.outcome == VIOLATED
        _assert_replays(spec, prop, verdict.witness)
        assert len(verdict.witness) == len(oc.oracle_check(spec, prop)[1])
    return verdict, stats


FINITE = sorted(set(ALL) - {"tpcounter"})


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("name", FINITE)
def test_reduced_verdicts_match_the_oracle(name, n):
    text = ALL[name](n)
    spec = parse(text)
    renamed = parse(_renamed(text, random.Random(n)))
    for prop in spec.properties:
        assert symmetric_sets(spec, prop) == [spec.config[0][1][1]]
        v, stats = _assert_agrees_with_oracle(spec, prop,
                                              _oracle_states(name, n))
        # the renamed text: same verdict, same count, witnesses replay
        other = renamed.property(prop.name)
        rv, rstats = recomp_verify(renamed, other, "S4")
        assert (rv.outcome, rstats.max_states) == (v.outcome,
                                                   stats.max_states)
        if rv.outcome == VIOLATED:
            _assert_replays(renamed, other, rv.witness)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_counter_violations_replay_and_holds_stays_unbounded(n):
    """tpcounter's counter is unbounded: the reduced search still finds
    the violation of `NoPrepares` and runs into the bound on
    `Consistent`."""
    for text in (ALL["tpcounter"](n),
                 _renamed(ALL["tpcounter"](n), random.Random(n))):
        spec = parse(text)
        prop = spec.property("NoPrepares")
        verdict, _ = recomp_verify(spec, prop, "S4", bound=2_000)
        assert verdict.outcome == VIOLATED
        _assert_replays(spec, prop, verdict.witness)
        assert len(verdict.witness) == len(oc.oracle_check(spec, prop)[1])
        verdict, _ = recomp_verify(spec, spec.property("Consistent"), "S4",
                                   bound=2_000)
        assert (verdict.outcome, verdict.reason) == (INCONCLUSIVE,
                                                    "bound-exceeded")


# --------------------------------------------------------------------------
# the count is the number of orbits


def _permuted(v, m):
    """An oracle value with its strings renamed by the dict m."""
    if isinstance(v, str):
        return m.get(v, v)
    if isinstance(v, frozenset):
        return frozenset(_permuted(x, m) for x in v)
    if isinstance(v, tuple) and v and v[0] == oc.REC:
        return v[:1] + tuple((f, _permuted(x, m)) for f, x in v[1:])
    if isinstance(v, tuple) and v and v[0] == oc.FUN:
        return v[:1] + tuple(sorted(((_permuted(k, m), _permuted(x, m))
                                     for k, x in v[1:]), key=repr))
    if isinstance(v, tuple):
        return tuple(_permuted(x, m) for x in v)
    return v


def _orbit_count(states, elems):
    """The number of orbits of `states` under all permutations of
    `elems`."""
    perms = [dict(zip(elems, p)) for p in itertools.permutations(elems)]
    return len({frozenset(tuple((var, _permuted(x, m)) for var, x in q)
                          for m in perms)
                for q in states})


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("name,prop_name", [
    ("twophase", "Consistent"), ("lockserv", "Mutex"),
    ("consensus", "Agreement")])
def test_count_is_the_number_of_orbits(name, prop_name, n):
    spec = parse(ALL[name](n))
    prop = spec.property(prop_name)  # holds: every orbit is explored
    states = _oracle_states(name, n)
    violated, count, _ = err_reach(spec, prop)
    assert not violated
    assert count == _orbit_count(states, _set_strings(spec))
    assert count < len(states) == err_lts(spec, prop).n_states


# --------------------------------------------------------------------------
# a set whose strings occur elsewhere is not reduced


def _assert_unreduced(text, prop_name):
    """No set of the spec is symmetric for the property, err_reach counts
    as err_lts does where the property holds, and S4 agrees with the
    oracle."""
    spec = parse(text)
    prop = spec.property(prop_name)
    assert symmetric_sets(spec, prop) == []
    violated, count, _ = err_reach(spec, prop)
    if not violated:
        assert count == err_lts(spec, prop).n_states
    _assert_agrees_with_oracle(spec, prop, oc.oracle_reach(spec)[0])


def test_a_literal_in_a_guard_blocks_the_reduction():
    text = twophase(3).replace(
        "ACTION SilentAbort(rm)\n",
        'ACTION SilentAbort(rm)\n  /\\ rm /= "rm1"\n')
    _assert_unreduced(text, "Consistent")
    _assert_unreduced(text, "NoPrepares")


def test_a_literal_in_the_property_blocks_the_reduction():
    text = twophase(3) + (
        '\nPROPERTY FirstNotCommitted\n'
        '  rmState["rm1"] /= "committed"\n')
    _assert_unreduced(text, "FirstNotCommitted")
    # the other properties name no element, and are still reduced
    spec = parse(text)
    assert symmetric_sets(spec, spec.property("Consistent"))
    assert err_reach(spec, spec.property("Consistent"))[1] == 80


def test_an_element_equal_to_another_literal_blocks_the_reduction():
    # "none" is both a client and the value of an idle request
    text = lockserv(3).replace('"c1"', '"none"')
    _assert_unreduced(text, "Mutex")


def test_an_element_in_another_constant_blocks_the_reduction():
    text = twophase(3).replace("CONSTANTS RMs", "CONSTANTS RMs, Coord")
    text = text.replace("CONFIG\n", 'CONFIG\n  Coord = "rm1"\n')
    text = text.replace("ACTION SilentAbort(rm)\n",
                        "ACTION SilentAbort(rm)\n  /\\ rm /= Coord\n")
    _assert_unreduced(text, "Consistent")
    _assert_unreduced(text, "NoPrepares")


# --------------------------------------------------------------------------
# witnesses whose representatives rename the elements along the way

DEEP = [
    (twophase, "~(\\E a \\in RMs : \\E b \\in RMs : "
               'rmState[a] = "prepared" /\\ rmState[b] = "aborted")'),
    (twophase, "\\A a \\in RMs : ~(a \\in tmPrepared /\\ "
               'rmState[a] = "aborted")'),
    (twophase, '\\A a \\in RMs : rmState[a] /= "committed"'),
    (lockserv, '\\A c \\in Clients : holds[c] = "no"'),
    (lockserv, "~(\\E a \\in Clients : \\E b \\in Clients : "
               'reqs[a] = "sent" /\\ rels[b] = "sent")'),
]


@pytest.mark.parametrize("gen,body", DEEP, ids=[
    "prepared-and-aborted", "prepared-rm-aborted", "committed", "held",
    "request-and-release"])
def test_witnesses_through_renamed_representatives_replay(gen, body):
    for n in (3, 4):
        text = gen(n) + "\nPROPERTY Deep\n  %s\n" % body
        for t in (text, _renamed(text, random.Random(n))):
            spec = parse(t)
            prop = spec.property("Deep")
            assert symmetric_sets(spec, prop)
            verdict, _ = recomp_verify(spec, prop, "S4")
            assert verdict.outcome == VIOLATED
            _assert_replays(spec, prop, verdict.witness)
            shortest = oc.oracle_check(spec, prop)[1]
            assert len(verdict.witness) == len(shortest)
