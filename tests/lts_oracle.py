"""Trace and bisimilarity comparisons of LTSs, for the tests.

Brute-force and test-scale: `trace_set` materializes every bounded
action sequence, `traces_equal` runs a synchronized subset construction
and `bisimilar` refines one partition over both systems with the
package's own `_refine`.
"""

from recomp.lts import _refine


def trace_set(l, length, alphabet=None):
    """All action sequences of length <= `length` admitted from the
    initial states.  Over a declared super-alphabet, actions outside the
    LTS's own alphabet are stutters (always allowed, state unchanged)."""
    alpha = tuple(alphabet) if alphabet is not None else l.alphabet
    own = {lab: i for i, lab in enumerate(l.alphabet)}
    grouped = [l.grouped(s) for s in range(l.n_states)]
    memo = {}

    def suffixes(states, k):
        if k == 0:
            return {()}
        key = (states, k)
        hit = memo.get(key)
        if hit is not None:
            return hit
        out = {()}
        for lab in alpha:
            i = own.get(lab)
            if i is None:
                targets = states
            else:
                targets = frozenset(t for s in states
                                    for t in grouped[s].get(i, ()))
            if targets:
                out.update((lab,) + rest for rest in suffixes(targets, k - 1))
        memo[key] = out
        return out

    return suffixes(frozenset(l.initials), length)


def traces_equal(a, b, length, alphabet=None):
    """Prefix-language equality up to `length` without materializing the
    trace sets (synchronized subset construction)."""
    if alphabet is None:
        alphabet = sorted(set(a.alphabet) | set(b.alphabet), key=repr)

    def step(l, grouped, own, states, lab):
        i = own.get(lab)
        if i is None:
            return states
        return frozenset(t for s in states for t in grouped[s].get(i, ()))

    a_own = {lab: i for i, lab in enumerate(a.alphabet)}
    b_own = {lab: i for i, lab in enumerate(b.alphabet)}
    a_grouped = [a.grouped(s) for s in range(a.n_states)]
    b_grouped = [b.grouped(s) for s in range(b.n_states)]

    start = (frozenset(a.initials), frozenset(b.initials))
    seen = {start: 0}
    frontier = [start]
    depth = 0
    while frontier and depth < length:
        depth += 1
        nxt = []
        for sa, sb in frontier:
            for lab in alphabet:
                ta = step(a, a_grouped, a_own, sa, lab)
                tb = step(b, b_grouped, b_own, sb, lab)
                if bool(ta) != bool(tb):
                    return False
                if ta and (ta, tb) not in seen:
                    seen[(ta, tb)] = depth
                    nxt.append((ta, tb))
        frontier = nxt
    return True


def bisimilar(a, b):
    """Strong bisimilarity of the initial states, keeping pi classes
    apart from ordinary states."""
    alphabet = sorted(set(a.alphabet) | set(b.alphabet), key=repr)
    uidx = {lab: i for i, lab in enumerate(alphabet)}
    n = a.n_states + b.n_states
    adj = []
    seed = []
    for l, off in ((a, 0), (b, a.n_states)):
        for s in range(l.n_states):
            adj.append([(uidx[l.alphabet[lab]], t + off) for lab, t in l.out(s)])
            seed.append(1 if l.pi == s else 0)
    if n == 0:
        return True
    block = _refine(n, adj, seed)
    a_init = {block[s] for s in a.initials}
    b_init = {block[s + a.n_states] for s in b.initials}
    return a_init == b_init
