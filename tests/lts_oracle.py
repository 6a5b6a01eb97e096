"""Hand-built LTSs, a search for pi, and trace and bisimilarity
comparisons, for the tests.

`lts_from_edges` lays out an LTS from an edge list in any order, with pi
anywhere, which the package's one builder `explore` never does.
`product` is the synchronous product of any number of LTSs by the
definition, over tuples of their states, where `lts.compose` folds
two-operand products level by level.
`shortest_pi_trace` searches any LTS for pi breadth-first, where
`lts.pi_trace` relies on `explore`'s layout.  The comparisons are
brute-force and test-scale: `trace_set` materializes every bounded
action sequence, `traces_equal` runs a synchronized subset construction
and `bisimilar` refines one partition over both systems.  `refine` is
signature refinement over per-state lists of (label, target) pairs, and
`quotient` lays out a partition's quotient with the pairs as keys, where
`lts.minimize` codes each edge as an int.  `branching_minimize` is
minimization after hiding by the definition of branching bisimulation:
it searches each state's inert tau paths one by one, where
`lts.minimize` collapses tau-SCCs and reuses their signatures.
`weak_minimize` saturates the weak transition relation and refines
signatures over it, and `weakly_bisimilar` compares two systems over
their saturated relations.  `weak_words` and `weak_subsets` follow
visible words through sets of states, as frozensets, where
`lts.determinize` codes the sets as int bitmasks.
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


def product(*operands):
    """The synchronous product by the definition, and its states as
    tuples of operand states, pi's left out.

    A label moves every operand whose alphabet holds it, to each
    combination of their targets by it, and leaves the others where they
    are.  A tuple with some operand at its pi is pi, one absorbing state
    with a self-loop on every label.  Only reachable tuples are kept,
    numbered as a breadth-first search finds them, pi last; each row
    lists its labels in alphabet order, and a label's targets in the
    order of the operands' rows."""
    alphabet = sorted(set().union(*(o.alphabet for o in operands)),
                      key=repr)
    holders = [[i for i, o in enumerate(operands) if lab in o.alphabet]
               for lab in alphabet]
    moves = [[{o.alphabet[lab]: ts for lab, ts in row.items()}
              for row in _grouped(o)] for o in operands]

    def is_pi(key):
        return any(s == o.pi for s, o in zip(key, operands))

    keys = []
    index = {}
    for key in itertools.product(*(o.initials for o in operands)):
        if not is_pi(key) and key not in index:
            index[key] = len(keys)
            keys.append(key)
    initials = [index.get(key, -1) for key in
                itertools.product(*(o.initials for o in operands))]
    edges = []
    head = 0
    while head < len(keys):
        key = keys[head]
        for lab, (label, movers) in enumerate(zip(alphabet, holders)):
            targets = [moves[i][key[i]].get(label, ()) for i in movers]
            for combo in itertools.product(*targets):
                nxt = list(key)
                for i, t in zip(movers, combo):
                    nxt[i] = t
                nxt = tuple(nxt)
                if is_pi(nxt):
                    edges.append((head, lab, -1))
                    continue
                if nxt not in index:
                    index[nxt] = len(keys)
                    keys.append(nxt)
                edges.append((head, lab, index[nxt]))
        head += 1
    n = len(keys)
    pi = None
    if any(t < 0 for _, _, t in edges) or -1 in initials:
        pi = n
        n += 1
        edges = [(s, lab, pi if t < 0 else t) for s, lab, t in edges]
        edges += [(pi, lab, pi) for lab in range(len(alphabet))]
        initials = [pi if s < 0 else s for s in initials]
    return lts_from_edges(n, alphabet, edges, initials, pi), keys


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
    """The quotient `lts.minimize(l)` must give when l has no tau label:
    pi is seeded in its own block, and `quotient` lays out the partition
    `refine` finds over the edges as stored."""
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


def _hidden(l, hide):
    """l with `hide` relabeled to a fresh tau, and its seed partition:
    pi in a block of its own."""
    if hide:
        l = hide_labels(l, hide)
    return l, [1 if s == l.pi else 0 for s in range(l.n_states)]


def weakly_bisimilar(a, b):
    """Weak bisimilarity of the initial states, keeping pi classes apart
    from ordinary states: strong bisimilarity of the saturated relations,
    with every tau label as one.  pi's own steps are left out on both
    sides, since a quotient makes pi absorbing whatever steps it had."""
    adj = []
    seed = []
    for l, off in ((a, 0), (b, a.n_states)):
        cut = lts_from_edges(l.n_states, l.alphabet,
                             [(s, lab, t) for s in range(l.n_states)
                              if s != l.pi for lab, t in l.out(s)],
                             l.initials, l.pi)
        for s, out in enumerate(saturate(cut)):
            adj.append([(None if lab < 0 else l.alphabet[lab], t + off)
                        for lab, t in out])
            seed.append(1 if l.pi == s else 0)
    block = refine(len(adj), adj, seed)
    return ({block[s] for s in a.initials}
            == {block[s + a.n_states] for s in b.initials})


def branching_refine(l, seed):
    """Branching bisimulation by signature refinement, by the definition.

    A tau step is inert when its target is in its source's block.  Per
    state, a search collects the states it reaches by inert steps, and
    the signature is the state's block with the (label, block of target)
    pairs of their other steps, every tau label as one."""
    tau_idx = {i for i, lab in enumerate(l.alphabet) if is_tau(lab)}
    block = list(seed)
    n_blocks = len(set(block))
    while True:
        sigs = {}
        new = []
        for s in range(l.n_states):
            seen = {s}
            stack = [s]
            pairs = set()
            while stack:
                for lab, t in l.out(stack.pop()):
                    if lab not in tau_idx:
                        pairs.add((lab, block[t]))
                    elif block[t] != block[s]:
                        pairs.add((-1, block[t]))
                    elif t not in seen:
                        seen.add(t)
                        stack.append(t)
            new.append(sigs.setdefault((block[s], frozenset(pairs)),
                                       len(sigs)))
        if len(sigs) == n_blocks:
            return new
        block, n_blocks = new, len(sigs)


def branching_minimize(l, hide=None):
    """The quotient `lts.minimize(l, hide)` must give: labels in `hide`
    become a fresh tau, pi is seeded in its own block, and `quotient`
    lays out the partition `branching_refine` finds.  Without a tau
    label, that is the partition `refine` finds too."""
    if l.n_states == 0:
        return l
    l, seed = _hidden(l, hide)
    return quotient(l, branching_refine(l, seed))


def weak_minimize(l, hide=None):
    """The quotient by weak bisimulation, from signatures over the
    saturated relation: labels in `hide` become a fresh tau, pi is
    seeded in its own block, and `quotient` lays out the partition
    `refine` finds.  Branching bisimulation is finer, so
    `branching_minimize` gives no fewer states."""
    if l.n_states == 0:
        return l
    l, seed = _hidden(l, hide)
    return quotient(l, refine(l.n_states, saturate(l), seed))


def _weak_steps(l):
    """A function from a set of states and a label index to the tau-closed
    set its members reach by that label, and the tau-closed start set."""
    closures = tau_closures(l)
    grouped = _grouped(l)

    def close(states):
        return frozenset().union(*(closures[s] for s in states))

    def step(states, lab):
        return close({t for s in states for t in grouped[s].get(lab, ())})

    return step, close(l.initials)


def weak_words(l, length):
    """Per word of visible labels, of length <= `length`, that l admits
    with tau steps free: whether some path that spells it reaches pi.  A
    set of states that holds pi admits every word, and each reaches pi."""
    step, start = _weak_steps(l)
    visible = [i for i, lab in enumerate(l.alphabet) if not is_tau(lab)]
    out = {}
    frontier = {(): start}
    for depth in range(length + 1):
        nxt = {}
        for word, states in frontier.items():
            at_pi = l.pi in states
            out[word] = at_pi
            if depth == length:
                continue
            for lab in visible:
                targets = states if at_pi else step(states, lab)
                if targets:
                    nxt[word + (l.alphabet[lab],)] = targets
        frontier = nxt
    return out


def weak_subsets(l):
    """The tau-closed sets of states that l's visible words lead to,
    leaving out those that hold pi."""
    step, start = _weak_steps(l)
    visible = [i for i, lab in enumerate(l.alphabet) if not is_tau(lab)]
    seen = {start}
    todo = [start]
    while todo:
        states = todo.pop()
        if l.pi in states:
            continue
        for lab in visible:
            targets = step(states, lab)
            if targets and targets not in seen:
                seen.add(targets)
                todo.append(targets)
    return {states for states in seen if l.pi not in states}
