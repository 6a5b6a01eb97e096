"""Labeled transition systems and the operations the verifier needs:
exploration, parallel composition, the error-state queries, and
bisimulation minimization.

States are dense integers.  Transitions are kept in compressed sparse
row form (one offsets array plus parallel label/target arrays), which
keeps multi-million-edge systems affordable.  `explore` is the one
breadth-first search: enumeration, error automata, composition and
quotients all feed it a successor function, and the layout it leaves
(see `Lts`) answers the error-state queries without a second search.
Labels are concrete actions `(name, argument)`; hidden actions are
relabeled to a tau label that is unique per LTS, so tau never
synchronizes in a composition.

`minimize` quotients by strong bisimulation, or by weak bisimulation
after hiding.  Both refine signatures until the partition is stable
(after Blom & Orzan).  Strong refinement reads the CSR arrays directly,
coding each edge as one int (`_edge_keys`), so that a state's signature
is a frozenset of ints.  The weak signatures are computed along the DAG
of tau-SCCs, sinks first, so the weak transition relation, quadratic in
tau-connected states, is never built; each round still gives exactly
the partition that saturating it would.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from operator import add
from typing import Optional

# Loops poll their `cancel` argument once per this many edges they read
# or append (`_refine` also once per this many states, `_weak_refine`
# per set elements it builds), so that the time between two polls is
# bounded by work done rather than by states expanded.
_POLL_EVERY = 1024

_tau_counter = itertools.count()


class StateBoundExceeded(Exception):
    def __init__(self, bound):
        super().__init__("state bound of %d exceeded" % bound)
        self.bound = bound


class Cancelled(Exception):
    """Cooperative cancellation requested by the portfolio coordinator."""


def _check_cancel(cancel):
    if cancel is not None and cancel.is_set():
        raise Cancelled()


def is_tau(label):
    return label[0] == "τ"


def fresh_tau():
    return ("τ", next(_tau_counter))


@dataclass(frozen=True)
class Lts:
    """CSR form as `explore` lays it out (`hide_labels` only relabels):
    states and rows in discovery order; pi only if reached, and last."""

    n_states: int
    alphabet: tuple  # of (action name, argument value or None)
    offsets: array  # CSR row starts, length n_states + 1
    labels: array  # per-edge alphabet index
    dsts: array  # per-edge target state
    initials: tuple  # of state indices
    pi: Optional[int] = None

    @property
    def n_edges(self):
        return len(self.dsts)

    def out(self, s):
        """Outgoing (label index, target) pairs of a state."""
        lo, hi = self.offsets[s], self.offsets[s + 1]
        return zip(self.labels[lo:hi], self.dsts[lo:hi])


# --------------------------------------------------------------------------
# Exploration


def explore(initials, successors, alphabet, is_pi, bound=None, cancel=None,
            stop_at_pi=False):
    """Breadth-first LTS construction over hashable state keys.

    `successors(key)` yields (label index, successor key) pairs.  States
    are numbered in discovery order and each row is appended to the CSR
    arrays as it is expanded.  Keys for which `is_pi` holds collapse into
    one absorbing pi, the last state, with a self-loop on every label;
    `is_pi` runs once per distinct key.  With `stop_at_pi` the search
    ends at the first edge into pi, leaving states discovered but not
    expanded without edges.  `cancel` is polled after expanding a state
    once another `_POLL_EVERY` edges have been appended.
    """
    index = {}
    order = []
    offsets = array("q", [0])
    labels = array("i")
    dsts = array("i")
    pi_seen = False

    def intern(key):
        nonlocal pi_seen
        if is_pi(key):
            index[key] = -1
            pi_seen = True
            return -1
        i = len(order)
        if bound is not None and i >= bound:
            raise StateBoundExceeded(bound)
        index[key] = i
        order.append(key)
        return i

    init = []
    for key in initials:
        i = index.get(key)
        init.append(intern(key) if i is None else i)
        if stop_at_pi and pi_seen:
            break

    get = index.get
    labels_append, dsts_append = labels.append, dsts.append
    done = stop_at_pi and pi_seen
    head = 0
    next_poll = _POLL_EVERY
    while head < len(order) and not done:
        for lab, key in successors(order[head]):
            i = get(key)
            if i is None:
                i = intern(key)
                done = stop_at_pi and i < 0
            labels_append(lab)
            dsts_append(i)
            if done:
                break
        head += 1
        e = len(dsts)
        offsets.append(e)
        if e >= next_poll:
            _check_cancel(cancel)
            next_poll += _POLL_EVERY
    offsets.extend([len(dsts)] * (len(order) - head))

    n = len(order)
    pi = None
    if pi_seen:
        pi = n
        n += 1
        for j, t in enumerate(dsts):
            if t < 0:
                dsts[j] = pi
        init = [pi if s < 0 else s for s in init]
        labels.extend(range(len(alphabet)))
        dsts.extend([pi] * len(alphabet))
        offsets.append(len(dsts))
    return Lts(n, tuple(alphabet), offsets, labels, dsts, tuple(init), pi)


def pi_trace(l):
    """Shortest label path from an initial state to pi, or None."""
    path = pi_path(l)
    if path is None:
        return None
    return tuple(l.alphabet[lab] for _, lab in path)


def pi_path(l):
    """The steps of a shortest path from an initial state to pi, as
    (source state, label index) pairs, or None.  The first stored edge
    into a state discovered it (see `Lts`), so walk those edges back from
    pi."""
    if l.pi is None:
        return None
    path = []
    s = l.pi
    while s not in l.initials:
        e = l.dsts.index(s)
        s = bisect_right(l.offsets, e) - 1
        path.append((s, l.labels[e]))
    return path[::-1]


def pi_reachable(l):
    """Whether pi is reachable: `explore` adds pi only once reached."""
    return l.pi is not None


# --------------------------------------------------------------------------
# Composition


def compose(a, b, bound=None, cancel=None):
    """Parallel composition: synchronize on shared labels, interleave the
    rest; restricted to reachable product states; pi coordinates collapse
    into a single absorbing pi, the last state.

    a's rows (the running composite's, in the engine) are read as stored;
    a row of b (the minimized group) is split into shared-label targets
    and interleaved edges when the search first reaches its state, and
    kept.  `cancel` is polled once per `_POLL_EVERY` edges split, on top
    of the polls of the search.
    """
    if a.pi is not None and b.pi is not None:
        raise ValueError("at most one composition operand may carry pi")
    if b.pi is not None:
        a, b = b, a

    alphabet = sorted(set(a.alphabet) | set(b.alphabet), key=repr)
    uidx = {l: i for i, l in enumerate(alphabet)}
    shared = set(a.alphabet) & set(b.alphabet)

    a_union = [uidx[lab] for lab in a.alphabet]
    a_sync = [lab in shared for lab in a.alphabet]
    b_union = [uidx[lab] for lab in b.alphabet]
    b_sync = [lab in shared for lab in b.alphabet]
    b_offsets, b_labels, b_dsts = b.offsets, b.labels, b.dsts
    b_rows = [None] * b.n_states  # (union label -> targets, free edges)
    split_edges = 0
    next_poll = _POLL_EVERY

    def split(y):
        nonlocal split_edges, next_poll
        lo, hi = b_offsets[y], b_offsets[y + 1]
        split_edges += hi - lo
        if split_edges >= next_poll:
            _check_cancel(cancel)
            next_poll += _POLL_EVERY
        row_shared, row_free = {}, []
        for lab, t in zip(b_labels[lo:hi], b_dsts[lo:hi]):
            ul = b_union[lab]
            if b_sync[lab]:
                row_shared.setdefault(ul, []).append(t)
            else:
                row_free.append((ul, t))
        b_rows[y] = row_shared, row_free
        return b_rows[y]

    def successors(key):
        x, y = key
        row_shared, row_free = b_rows[y] or split(y)
        for lab, t in a.out(x):
            ul = a_union[lab]
            if a_sync[lab]:
                for t2 in row_shared.get(ul, ()):
                    yield ul, (t, t2)
            else:
                yield ul, (t, y)
        for ul, t2 in row_free:
            yield ul, (x, t2)

    a_pi = a.pi
    return explore([(x, y) for x in a.initials for y in b.initials],
                   successors, alphabet, lambda key: key[0] == a_pi,
                   bound, cancel)


# --------------------------------------------------------------------------
# Minimization


def _refine(l, seed, cancel=None):
    """Strong bisimulation from the initial blocks seed[s].  A round
    codes each edge as label + width * block of target, width being the
    alphabet's size, and numbers the signatures (block, frozenset of the
    state's keys) by first occurrence, in slices of `_POLL_EVERY`
    states.  Returns each state's final block id, dense."""
    rows = list(map(slice, l.offsets[:-1], l.offsets[1:]))
    width = len(l.alphabet)
    block = list(seed)
    n_blocks = len(set(block))
    while True:
        keys = _edge_keys(l, range(width), [b * width for b in block],
                          cancel)
        sigs = {}
        new = []
        for lo in range(0, l.n_states, _POLL_EVERY):
            hi = lo + _POLL_EVERY
            new += [sigs.setdefault((b, frozenset(keys[r])), len(sigs))
                    for b, r in zip(block[lo:hi], rows[lo:hi])]
            _check_cancel(cancel)
        if len(sigs) == n_blocks:
            return new
        block, n_blocks = new, len(sigs)


def _edge_keys(l, label_key, target_key, cancel):
    """label_key[label] + target_key[target] for l's edges, in a list
    built in slices of `_POLL_EVERY` edges with a poll after each."""
    labels, dsts = l.labels, l.dsts
    label_key = list(label_key)
    keys = []
    for lo in range(0, len(dsts), _POLL_EVERY):
        hi = lo + _POLL_EVERY
        keys += [label_key[lab] + target_key[t]
                 for lab, t in zip(labels[lo:hi], dsts[lo:hi])]
        _check_cancel(cancel)
    return keys


def _quotient(l, block, cancel=None):
    """The quotient of l by a partition, explored from the sorted initial
    blocks: a block steps to the sorted set of (label, block of target)
    over its members' edges, coded as label * blocks + block of target
    (`_edge_keys`), whose int order is the pairs' order, and decoded by
    `divmod`.  Only reachable blocks are kept (all of them on an LTS
    that `explore` built), and pi's block becomes the last.  `cancel`
    is also polled once per `_POLL_EVERY` edges of l read."""
    n_blocks = max(block) + 1
    members = [[] for _ in range(n_blocks)]
    for s, b in enumerate(block):
        members[b].append(s)
    keys = _edge_keys(l, range(0, len(l.alphabet) * n_blocks, n_blocks),
                      block, cancel)
    offsets = l.offsets
    read = 0
    next_poll = _POLL_EVERY

    def successors(b):
        nonlocal read, next_poll
        row = set()
        for s in members[b]:
            lo, hi = offsets[s], offsets[s + 1]
            row.update(keys[lo:hi])
            read += hi - lo
        if read >= next_poll:
            _check_cancel(cancel)
            next_poll += _POLL_EVERY
        return map(divmod, sorted(row), itertools.repeat(n_blocks))

    pi = block[l.pi] if l.pi is not None else None
    return explore(sorted({block[s] for s in l.initials}), successors,
                   l.alphabet, lambda b: b == pi, cancel=cancel)


def _tau_sccs(l, tau, cancel=None):
    """The tau-SCCs of l, by an iterative Tarjan over its tau edges.

    `tau[lab]` tells whether label index lab is a tau.  Returns
    (scc, members, member_offsets): scc[s] is the number of s's
    component, and the components are numbered in the order Tarjan
    emits them, sinks first, so a tau edge never leads to a higher
    number.  Component c's states are members[member_offsets[c]:
    member_offsets[c + 1]].  `cancel` is polled once per `_POLL_EVERY`
    edges read.
    """
    n = l.n_states
    offsets, labels, dsts = l.offsets, l.labels, l.dsts
    index = [-1] * n
    low = [0] * n
    scc = [-1] * n
    members = array("i")
    member_offsets = array("q", [0])
    stack = []
    counter = 0
    read = 0
    next_poll = _POLL_EVERY
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, offsets[root])]
        while work:
            v, e = work[-1]
            hi = offsets[v + 1]
            descend = -1
            while e < hi:
                if tau[labels[e]]:
                    w = dsts[e]
                    if index[w] < 0:
                        descend = w
                        e += 1
                        break
                    if scc[w] < 0 and index[w] < low[v]:  # on the stack
                        low[v] = index[w]
                e += 1
            read += e - work[-1][1]
            if read >= next_poll:
                _check_cancel(cancel)
                next_poll += _POLL_EVERY
            if descend >= 0:
                work[-1] = (v, e)
                index[descend] = low[descend] = counter
                counter += 1
                stack.append(descend)
                work.append((descend, offsets[descend]))
                continue
            work.pop()
            if low[v] == index[v]:
                c = len(member_offsets) - 1
                while True:
                    w = stack.pop()
                    scc[w] = c
                    members.append(w)
                    if w == v:
                        break
                member_offsets.append(len(members))
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
    return scc, members, member_offsets


def _weak_refine(l, seed, cancel=None):
    """Weak bisimulation by signature refinement along the tau-SCCs,
    never building the weak transition relation.

    A state's weak signature is its own block, TB (the blocks it reaches
    by tau*) and W (the (visible label, block) pairs it reaches by
    tau* a tau*).  States of one tau-SCC share TB and W.  Each round
    makes two sinks-first passes over the SCCs: an SCC's TB is its
    members' blocks plus the TB of each tau successor, and its K, the
    pairs (label, TB of target) over the visible edges reachable by
    tau*, is its members' own pairs plus the K of each tau successor.
    W is a function of K that distributes over union, so each distinct
    K expands once: a set of own pairs by lifting each pair through its
    TB, any other K as the union of the W of the sets that first gave
    it.  Equal sets are interned and unions memoized on the indices of
    their parts, so SCCs with the same sets share one object and a
    signature is three ints.  The state's own block stays in the
    signature, since members of one tau cycle may differ there (pi, on
    a hand-built LTS).  Each round yields the partition that signatures
    over the saturated relation give, numbered by first occurrence as
    in `_refine`.  Every pass over the states or SCCs polls `cancel`
    once per `_POLL_EVERY` edges or set elements it reads, and each
    round polls once more before it numbers the signatures.
    """
    n = l.n_states
    tau = [is_tau(lab) for lab in l.alphabet]
    n_labels = len(tau)
    scc, members, member_offsets = _tau_sccs(l, tau, cancel)
    n_scc = len(member_offsets) - 1

    # Per SCC, as CSR over SCC numbers: the other SCCs one tau edge
    # leads to, and the distinct (visible label, target SCC) pairs.
    succ_offsets = array("q", [0])
    succ = array("i")
    vis_offsets = array("q", [0])
    vis_labels = array("i")
    vis_sccs = array("i")
    offsets, labels, dsts = l.offsets, l.labels, l.dsts
    scc_of = scc.__getitem__
    read = 0
    next_poll = _POLL_EVERY
    for c in range(n_scc):
        pairs = set()
        for m in members[member_offsets[c]:member_offsets[c + 1]]:
            lo, hi = offsets[m], offsets[m + 1]
            pairs.update(zip(labels[lo:hi], map(scc_of, dsts[lo:hi])))
            read += hi - lo
        if read >= next_poll:
            _check_cancel(cancel)
            next_poll += _POLL_EVERY
        taus = [p for p in pairs if tau[p[0]]]
        pairs.difference_update(taus)
        succ.extend({d for _, d in taus if d != c})
        succ_offsets.append(len(succ))
        if pairs:
            labs, ds = zip(*pairs)
            vis_labels.extend(labs)
            vis_sccs.extend(ds)
        vis_offsets.append(len(vis_labels))

    block = list(seed)
    n_blocks = len(set(block))
    while True:
        work = 0
        next_poll = _POLL_EVERY

        def poll(more):
            nonlocal work, next_poll
            work += more
            if work >= next_poll:
                _check_cancel(cancel)
                next_poll += _POLL_EVERY

        # TB, sinks first: tb[c] indexes SCC c's set in tb_sets
        width = max(block) + 1  # the seed's block ids need not be dense
        tb_ids = {}
        tb_sets = []
        tb_memo = {}
        tb = [0] * n_scc
        for c in range(n_scc):
            lo, hi = member_offsets[c], member_offsets[c + 1]
            slo, shi = succ_offsets[c], succ_offsets[c + 1]
            ids = [tb[d] for d in succ[slo:shi]]
            ids.append(_intern(frozenset([block[m] for m in members[lo:hi]]),
                               tb_ids, tb_sets))
            tb[c] = _union(frozenset(ids), tb_sets, tb_ids, tb_memo)
            poll(hi - lo + shi - slo + len(tb_sets[tb[c]]))

        # K, sinks first, with the pair (lab, TB of d) as
        # TB index * n_labels + lab: k[c] indexes SCC c's set in k_sets,
        # and k_parts maps each K index to the K indices whose union
        # first gave it (None for a set of an SCC's own edges)
        n_tb = len(tb_sets)
        tb_key = [i * n_labels for i in tb]
        k_ids = {}
        k_sets = []
        k_memo = {}
        k_parts = {}
        k = [0] * n_scc
        for c in range(n_scc):
            lo, hi = vis_offsets[c], vis_offsets[c + 1]
            slo, shi = succ_offsets[c], succ_offsets[c + 1]
            own = _intern(frozenset(map(add, vis_labels[lo:hi], map(
                tb_key.__getitem__, vis_sccs[lo:hi]))), k_ids, k_sets)
            k_parts.setdefault(own, None)
            ids = [k[d] for d in succ[slo:shi]]
            ids.append(own)
            parts = frozenset(ids)
            k[c] = i = _union(parts, k_sets, k_ids, k_memo)
            k_parts.setdefault(i, parts)
            poll(hi - lo + shi - slo + len(k_sets[i]))

        # W, in K index order: a K of own edges expands each pair to
        # lab * width + block for the blocks of its TB; any other K is
        # the union of the W of its parts
        lifted = {}
        w_ids = {}
        w_sets = []
        w_memo = {}
        k_w = []
        for i, ks in enumerate(k_sets):
            parts = k_parts[i]
            if parts is None:
                for key in ks:
                    if key not in lifted:
                        t, lab = divmod(key, n_labels)
                        base = lab * width
                        lifted[key] = frozenset([base + b
                                                 for b in tb_sets[t]])
                k_w.append(_intern(frozenset().union(
                    *map(lifted.__getitem__, ks)), w_ids, w_sets))
            else:
                k_w.append(_union(frozenset([k_w[j] for j in parts]),
                                  w_sets, w_ids, w_memo))
            poll(len(ks) + len(w_sets[k_w[i]]))

        # signatures (own block, TB, W), numbered by first occurrence
        n_w = len(w_sets)
        scc_sig = [t * n_w + k_w[i] for t, i in zip(tb, k)]
        n_sig = n_tb * n_w
        _check_cancel(cancel)
        sigs = {}
        new = [sigs.setdefault(b * n_sig + scc_sig[c], len(sigs))
               for b, c in zip(block, scc)]
        if len(sigs) == n_blocks:
            return new
        block, n_blocks = new, len(sigs)


def _union(ids, sets, index, memo):
    """The index of the union of sets[i] over the frozenset `ids`,
    interned in `sets` and `index`; `memo` maps each `ids` already
    joined to that index.  The largest part is reused when it holds
    the others."""
    i = memo.get(ids)
    if i is None:
        parts = [sets[j] for j in ids]
        base = max(parts, key=len)
        rest = [p for p in parts if p is not base and not base.issuperset(p)]
        i = memo[ids] = _intern(base.union(*rest) if rest else base, index,
                                sets)
    return i


def _intern(s, ids, sets):
    """The index of set s in `sets`, appending it if no equal set is
    there yet."""
    i = ids.get(s)
    if i is None:
        i = ids[s] = len(sets)
        sets.append(s)
    return i


def minimize(l, mode="strong", hide=None, cancel=None):
    """Quotient by bisimulation, built by `explore` and so numbered
    breadth-first with pi (if any) in its own class as the last state.

    mode "strong": strong bisimulation on the given labels, by signature
    refinement over the edges as stored (`_refine`).
    mode "observational": labels in `hide` are renamed to a fresh tau
    first, then states are merged up to weak bisimulation, by signature
    refinement over the tau-SCC DAG (`_weak_refine`), which computes
    each state's weak signature without saturating the relation.  It is
    weak, not branching, bisimulation: branching is finer, so its
    quotients could be larger.
    """
    if l.n_states == 0:
        return l
    if mode not in ("strong", "observational"):
        raise ValueError("unknown minimization mode %r" % mode)
    if mode == "observational" and hide:
        l = hide_labels(l, hide)
    seed = [0] * l.n_states
    if l.pi is not None:
        seed[l.pi] = 1
    refine = _refine if mode == "strong" else _weak_refine
    return _quotient(l, refine(l, seed, cancel), cancel)


def hide_labels(l, hide):
    """Relabel the given actions to one fresh tau label."""
    kept = [i for i, lab in enumerate(l.alphabet) if lab not in hide]
    if len(kept) == len(l.alphabet):
        return l
    alphabet = tuple(l.alphabet[i] for i in kept) + (fresh_tau(),)
    remap = [len(kept)] * len(l.alphabet)  # hidden labels go to tau
    for j, i in enumerate(kept):
        remap[i] = j
    labels = array("i", [remap[lab] for lab in l.labels])
    return Lts(l.n_states, alphabet, l.offsets, labels, l.dsts, l.initials,
               l.pi)


# --------------------------------------------------------------------------
# Label formatting


def fmt_label(label):
    from .values import fmt_value

    name, arg = label
    if arg is None:
        return name
    if name == "τ":
        return "tau"
    return "%s(%s)" % (name, fmt_value(arg))
