"""Labeled transition systems and the operations the verifier needs:
exploration, parallel composition, the search for the error state,
and bisimulation minimization.

States are dense integers.  Transitions are kept in compressed sparse
row form (one offsets array plus parallel label/target arrays), which
keeps multi-million-edge systems affordable.  `explore` is the one
breadth-first builder of that form: state-graph enumeration, error
automata and composition all feed it a successor function, and it alone
places the error state pi (last index, a self-loop on every label).
`pi_trace` is the one search for pi.  Labels are concrete actions
`(name, argument)`; hidden actions are relabeled to a tau label that is
unique per LTS, so tau never synchronizes in a composition.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from typing import Optional

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
    n_states: int
    alphabet: tuple  # of (action name, argument Value or None)
    offsets: array  # CSR row starts, length n_states + 1
    labels: array  # per-edge alphabet index
    dsts: array  # per-edge target state
    initials: tuple  # of state indices
    pi: Optional[int] = None

    @staticmethod
    def from_edges(n, alphabet, edges, initials, pi=None):
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
        return Lts(n, tuple(alphabet), offsets, labels, dsts,
                   tuple(initials), pi)

    @property
    def n_edges(self):
        return len(self.dsts)

    def out(self, s):
        """Outgoing (label index, target) pairs of a state."""
        lo, hi = self.offsets[s], self.offsets[s + 1]
        return zip(self.labels[lo:hi], self.dsts[lo:hi])

    def grouped(self, s):
        """Outgoing edges of s grouped by label index."""
        by = {}
        for l, t in self.out(s):
            by.setdefault(l, []).append(t)
        return by


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
    expanded without edges.
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
        offsets.append(len(dsts))
        if head % _POLL_EVERY == 0:
            _check_cancel(cancel)
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
    """Shortest label path from an initial state to pi, or None if pi is
    unreachable."""
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
                if t == l.pi:
                    break
    trace = []
    s = l.pi
    while via[s] is not None:
        s, lab = via[s]
        trace.append(l.alphabet[lab])
    return tuple(reversed(trace))


def pi_reachable(l):
    return pi_trace(l) is not None


# --------------------------------------------------------------------------
# Composition


def compose(a, b, bound=None, cancel=None):
    """Parallel composition: synchronize on shared labels, interleave the
    rest; restricted to reachable product states; pi coordinates collapse
    into a single absorbing pi."""
    if a.pi is not None and b.pi is not None:
        raise ValueError("at most one composition operand may carry pi")
    if b.pi is not None:
        a, b = b, a

    alphabet = sorted(set(a.alphabet) | set(b.alphabet), key=repr)
    uidx = {l: i for i, l in enumerate(alphabet)}
    shared = set(a.alphabet) & set(b.alphabet)

    a_union = [uidx[lab] for lab in a.alphabet]
    a_sync = [lab in shared for lab in a.alphabet]
    # b, a minimized group in the engine, is grouped once up front.  a,
    # the composite so far, is grouped per reached state: grouping all of
    # it up front took more memory than the product's own arrays.
    b_rows = [[(uidx[b.alphabet[lab]], ts, b.alphabet[lab] in shared)
               for lab, ts in b.grouped(y).items()]
              for y in range(b.n_states)]
    b_sync = [{ul: ts for ul, ts, sync in row if sync} for row in b_rows]

    def successors(key):
        x, y = key
        for lab, ts in a.grouped(x).items():
            ul = a_union[lab]
            if a_sync[lab]:
                ts2 = b_sync[y].get(ul, ())
                for t in ts:
                    for t2 in ts2:
                        yield ul, (t, t2)
            else:
                for t in ts:
                    yield ul, (t, y)
        for ul, ts, sync in b_rows[y]:
            if not sync:
                for t2 in ts:
                    yield ul, (x, t2)

    a_pi = a.pi
    return explore([(x, y) for x in a.initials for y in b.initials],
                   successors, alphabet, lambda key: key[0] == a_pi,
                   bound, cancel)


# --------------------------------------------------------------------------
# Minimization


def _refine(n, adj, seed):
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
        for s in range(n):
            sig = (block[s], frozenset((l, block[t]) for l, t in adj[s]))
            b = sigs.get(sig)
            if b is None:
                b = len(sigs)
                sigs[sig] = b
            new[s] = b
        if len(sigs) == n_blocks:
            return new
        block, n_blocks = new, len(sigs)


def _quotient(l, block):
    n_blocks = max(block) + 1 if l.n_states else 0
    rep_edges = {(block[s], lab, block[t])
                 for s in range(l.n_states) for lab, t in l.out(s)}
    initials = sorted({block[s] for s in l.initials})
    pi = block[l.pi] if l.pi is not None else None
    return Lts.from_edges(n_blocks, l.alphabet, sorted(rep_edges),
                          initials, pi)


def _saturate(l, tau_idx):
    """Weak (double-arrow) transition relation after hiding.

    Returns per-state edge lists where label -1 stands for the tau-star
    closure and visible labels mean tau* . l . tau*.
    """
    closure = []
    for s in range(l.n_states):
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
        out = set()
        for u in closure[s]:
            out.add((-1, u))
            for lab, t in l.out(u):
                if lab not in tau_idx:
                    for t2 in closure[t]:
                        out.add((lab, t2))
        adj.append(out)
    return adj


def minimize(l, mode="strong", hide=None):
    """Quotient by bisimulation; pi (if any) stays in its own class.

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
        adj = [list(l.out(s)) for s in range(l.n_states)]
    else:
        tau_idx = {i for i, lab in enumerate(l.alphabet) if is_tau(lab)}
        adj = _saturate(l, tau_idx)
    block = _refine(l.n_states, adj, seed)
    return _quotient(l, block)


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
