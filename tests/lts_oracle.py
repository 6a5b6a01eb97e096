"""Hand-built LTSs, a search for pi, and trace and bisimilarity
comparisons, for the tests.

`lts_from_edges` lays out an LTS from an edge list in any order, with pi
anywhere, which the package's one builder `explore` never does.
`shortest_pi_trace` searches any LTS for pi breadth-first, where
`lts.pi_trace` relies on `explore`'s layout.  The comparisons are
brute-force and test-scale: `trace_set` materializes every bounded
action sequence, `traces_equal` runs a synchronized subset construction
and `bisimilar` refines one partition over both systems.  `refine` is
signature refinement over per-state lists of (label, target) pairs, and
`quotient` lays out a partition's quotient with the pairs as keys, where
`lts.minimize` codes each edge as an int.  `weak_minimize` is
observational minimization the direct way: it saturates the weak
transition relation and refines signatures over it, where
`lts.minimize` works along the tau-SCCs.
"""

import itertools
from array import array

from recomp.lts import Lts, explore, hide_labels, is_tau


def lts_from_edges(n, alphabet, edges, initials, pi=None):
    """An LTS with n states whose rows hold the (source, label index,
    target) edges in the order given."""
    counts = [0] * (n + 1)
    for s, _, _ in edges:
        counts[s + 1] += 1
    offsets = array("q", itertools.accumulate(counts))
    labels = array("i", bytes(4 * len(edges)))
    dsts = array("i", bytes(4 * len(edges)))
    pos = list(offsets[:-1])
    for s, l, t in edges:
        i = pos[s]
        labels[i] = l
        dsts[i] = t
        pos[s] = i + 1
    return Lts(n, tuple(alphabet), offsets, labels, dsts, tuple(initials), pi)


def shortest_pi_trace(l):
    """Shortest label path from an initial state to pi, or None if pi is
    absent or unreachable; ties go to the edge stored first."""
    if l.pi is None:
        return None
    via = {s: None for s in l.initials}
    queue = list(l.initials)
    head = 0
    while l.pi not in via:
        if head == len(queue):
            return None
        s = queue[head]
        head += 1
        for lab, t in l.out(s):
            if t not in via:
                via[t] = (s, lab)
                queue.append(t)
    trace = []
    s = l.pi
    while via[s] is not None:
        s, lab = via[s]
        trace.append(l.alphabet[lab])
    return tuple(reversed(trace))


def _grouped(l):
    """Per state, its targets under each label index."""
    rows = []
    for s in range(l.n_states):
        by = {}
        for lab, t in l.out(s):
            by.setdefault(lab, []).append(t)
        rows.append(by)
    return rows


def trace_set(l, length, alphabet=None):
    """All action sequences of length <= `length` admitted from the
    initial states.  Over a declared super-alphabet, actions outside the
    LTS's own alphabet are stutters (always allowed, state unchanged)."""
    alpha = tuple(alphabet) if alphabet is not None else l.alphabet
    own = {lab: i for i, lab in enumerate(l.alphabet)}
    grouped = _grouped(l)
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
    a_grouped = _grouped(a)
    b_grouped = _grouped(b)

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
    block = refine(n, adj, seed)
    a_init = {block[s] for s in a.initials}
    b_init = {block[s + a.n_states] for s in b.initials}
    return a_init == b_init


def refine(n, adj, seed):
    """Signature-based partition refinement.

    adj[s] is an iterable of (label, target) edges; seed[s] is the
    initial block id.  Returns a list mapping each state to its final
    block id (dense, ordered by first occurrence).
    """
    block = list(seed)
    n_blocks = len(set(block))
    while True:
        sigs = {}
        new = [0] * n
        for s in range(n):
            sig = (block[s], frozenset((l, block[t]) for l, t in adj[s]))
            new[s] = sigs.setdefault(sig, len(sigs))
        if len(sigs) == n_blocks:
            return new
        block, n_blocks = new, len(sigs)


def quotient(l, block):
    """The quotient of l by a partition, explored from the sorted initial
    blocks: a block steps to the sorted set of (label, block of target)
    over its members' edges, and pi's block becomes the last."""
    members = {}
    for s, b in enumerate(block):
        members.setdefault(b, []).append(s)

    def successors(b):
        return sorted({(lab, block[t]) for s in members[b]
                       for lab, t in l.out(s)})

    pi = block[l.pi] if l.pi is not None else None
    return explore(sorted({block[s] for s in l.initials}), successors,
                   l.alphabet, lambda b: b == pi)


def strong_minimize(l):
    """The quotient `lts.minimize(l, "strong")` must give: pi is seeded
    in its own block, and `quotient` lays out the partition `refine`
    finds over the edges as stored."""
    if l.n_states == 0:
        return l
    seed = [1 if s == l.pi else 0 for s in range(l.n_states)]
    return quotient(l, refine(l.n_states, [list(l.out(s))
                                           for s in range(l.n_states)], seed))


def tau_closures(l):
    """Per state, the set of states it reaches by tau*."""
    tau_idx = {i for i, lab in enumerate(l.alphabet) if is_tau(lab)}
    closures = []
    for s in range(l.n_states):
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for lab, t in l.out(u):
                if lab in tau_idx and t not in seen:
                    seen.add(t)
                    stack.append(t)
        closures.append(seen)
    return closures


def saturate(l):
    """Weak (double-arrow) transition relation of l.

    Returns per-state edge sets where label -1 stands for the tau-star
    closure and visible labels mean tau* . l . tau*.
    """
    tau_idx = {i for i, lab in enumerate(l.alphabet) if is_tau(lab)}
    closure = tau_closures(l)
    adj = []
    for s in range(l.n_states):
        out = set()
        for u in closure[s]:
            out.add((-1, u))
            for lab, t in l.out(u):
                if lab not in tau_idx:
                    for t2 in closure[t]:
                        out.add((lab, t2))
        adj.append(out)
    return adj


def weak_minimize(l, hide=None):
    """The quotient `lts.minimize(l, "observational", hide)` must give,
    from signatures over the saturated relation: labels in `hide` become
    a fresh tau, pi is seeded in its own block, and `quotient` lays out
    the partition `refine` finds."""
    if l.n_states == 0:
        return l
    if hide:
        l = hide_labels(l, hide)
    seed = [0] * l.n_states
    if l.pi is not None:
        seed[l.pi] = 1
    return quotient(l, refine(l.n_states, saturate(l), seed))
