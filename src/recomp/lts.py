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
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

# Loops poll their `cancel` argument once per this many edges they read
# or append (`_refine` counts its states too, `_saturate` only states),
# so that the time between two polls is bounded by work done rather than
# by states expanded.
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
    """Shortest label path from an initial state to pi, or None.  The
    first stored edge into a state discovered it (see `Lts`), so walk
    those edges back from pi."""
    if l.pi is None:
        return None
    trace = []
    s = l.pi
    while s not in l.initials:
        e = l.dsts.index(s)
        trace.append(l.alphabet[l.labels[e]])
        s = bisect_right(l.offsets, e) - 1
    return tuple(reversed(trace))


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
    b's (the minimized group's) are split once into shared-label targets
    and interleaved edges.
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
    b_shared = [{} for _ in range(b.n_states)]  # union label -> targets
    b_free = [[] for _ in range(b.n_states)]  # (union label, target)
    for y, row in _rows(b, cancel):
        for lab, t in row:
            ul = uidx[b.alphabet[lab]]
            if b.alphabet[lab] in shared:
                b_shared[y].setdefault(ul, []).append(t)
            else:
                b_free[y].append((ul, t))

    def successors(key):
        x, y = key
        row_shared = b_shared[y]
        for lab, t in a.out(x):
            ul = a_union[lab]
            if a_sync[lab]:
                for t2 in row_shared.get(ul, ()):
                    yield ul, (t, t2)
            else:
                yield ul, (t, y)
        for ul, t2 in b_free[y]:
            yield ul, (x, t2)

    a_pi = a.pi
    return explore([(x, y) for x in a.initials for y in b.initials],
                   successors, alphabet, lambda key: key[0] == a_pi,
                   bound, cancel)


# --------------------------------------------------------------------------
# Minimization


def _refine(n, adj, seed, cancel=None):
    """Signature-based partition refinement.

    adj[s] is an iterable of (label, block-of-target-relevant key) edge
    descriptors; seed[s] is the initial block id.  Returns a list mapping
    each state to its final block id (dense, ordered by first occurrence).
    """
    block = list(seed)
    n_blocks = len(set(block))
    while True:
        sigs = {}
        new = [0] * n
        work = 0
        next_poll = _POLL_EVERY
        for s in range(n):
            edges = adj[s]
            work += len(edges) + 1
            if work >= next_poll:
                _check_cancel(cancel)
                next_poll += _POLL_EVERY
            sig = (block[s], frozenset((l, block[t]) for l, t in edges))
            b = sigs.get(sig)
            if b is None:
                b = len(sigs)
                sigs[sig] = b
            new[s] = b
        if len(sigs) == n_blocks:
            return new
        block, n_blocks = new, len(sigs)


def _quotient(l, block, cancel=None):
    """The quotient of l by a partition, explored from the sorted initial
    blocks: a block steps to the sorted set of (label, block of target)
    over its members' edges.  Only reachable blocks are kept (all of them
    on an LTS that `explore` built), and pi's block becomes the last.
    `cancel` is also polled once per `_POLL_EVERY` edges of l read."""
    members = [[] for _ in range(max(block) + 1)]
    for s, b in enumerate(block):
        members[b].append(s)
    offsets = l.offsets
    read = 0
    next_poll = _POLL_EVERY

    def successors(b):
        nonlocal read, next_poll
        ms = members[b]
        read += sum(offsets[s + 1] - offsets[s] for s in ms)
        if read >= next_poll:
            _check_cancel(cancel)
            next_poll += _POLL_EVERY
        return sorted({(lab, block[t]) for s in ms for lab, t in l.out(s)})

    pi = block[l.pi] if l.pi is not None else None
    return explore(sorted({block[s] for s in l.initials}), successors,
                   l.alphabet, lambda b: b == pi, cancel=cancel)


def _rows(l, cancel):
    """(state, its outgoing (label index, target) pairs) for every state
    in order, polling `cancel` once per `_POLL_EVERY` edges."""
    offsets, labels, dsts = l.offsets, l.labels, l.dsts
    next_poll = _POLL_EVERY
    for s in range(l.n_states):
        lo, hi = offsets[s], offsets[s + 1]
        if hi >= next_poll:
            _check_cancel(cancel)
            next_poll += _POLL_EVERY
        yield s, zip(labels[lo:hi], dsts[lo:hi])


def _saturate(l, tau_idx, cancel=None):
    """Weak (double-arrow) transition relation after hiding.

    Returns per-state edge lists where label -1 stands for the tau-star
    closure and visible labels mean tau* . l . tau*.
    """
    closure = []
    for s in range(l.n_states):
        if s % _POLL_EVERY == 0:
            _check_cancel(cancel)
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for lab, t in l.out(u):
                if lab in tau_idx and t not in seen:
                    seen.add(t)
                    stack.append(t)
        closure.append(seen)
    adj = []
    for s in range(l.n_states):
        if s % _POLL_EVERY == 0:
            _check_cancel(cancel)
        out = set()
        for u in closure[s]:
            out.add((-1, u))
            for lab, t in l.out(u):
                if lab not in tau_idx:
                    for t2 in closure[t]:
                        out.add((lab, t2))
        adj.append(out)
    return adj


def minimize(l, mode="strong", hide=None, cancel=None):
    """Quotient by bisimulation, built by `explore` and so numbered
    breadth-first with pi (if any) in its own class as the last state.

    mode "strong": strong bisimulation on the given labels.
    mode "observational": labels in `hide` are renamed to a fresh tau
    first, then states are merged up to weak bisimulation.
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
    if mode == "strong":
        adj = [list(row) for _, row in _rows(l, cancel)]
    else:
        tau_idx = {i for i, lab in enumerate(l.alphabet) if is_tau(lab)}
        adj = _saturate(l, tau_idx, cancel)
    block = _refine(l.n_states, adj, seed, cancel)
    return _quotient(l, block, cancel)


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
