"""Component ordering and the strategy portfolio.

Components are layered by how many alphabet-interaction steps separate
them from the property component; edges between adjacent layers whose
alphabets intersect induce a partial order, extended to a deterministic
total order (syntactic-occurrence counts, then component index, break
ties; components outside every layer sort last).  The four portfolio
strategies assign the totally ordered components to groups.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from .recompose import (P, RecompositionMap, alphabets, interaction_sets,
                        make_map)

S1, S2, S3, S4 = "S1", "S2", "S3", "S4"
KINDS = (S1, S2, S3, S4)


@dataclass(frozen=True)
class DataFlowOrder:
    e_sets: tuple  # of frozensets of component indices (1-based), disjoint
    f_edges: frozenset  # of (earlier, later) index pairs

    def covers(self):
        out = set()
        for e in self.e_sets:
            out |= e
        return out


def dataflow_from_alphabets(alpha):
    """The layered order over 1-based component indices, from symbolic
    alphabets alone (component 1 is the property component)."""
    alpha = [set(a) for a in alpha]
    x = interaction_sets(alpha)
    # layer 0 is X0, layer i is X(i) - X(i-1); the repeated last set adds none
    e_sets = [x[0]] + [cur - prev for prev, cur in zip(x, x[1:-1])]
    f_edges = set()
    for earlier, later in zip(e_sets, e_sets[1:]):
        for j in earlier:
            for k in later:
                if alpha[j - 1] & alpha[k - 1]:
                    f_edges.add((j, k))
    return DataFlowOrder(tuple(e_sets), frozenset(f_edges))


def data_flow_order(components):
    return dataflow_from_alphabets(alphabets(components))


def total_order(components, spec):
    """Permutation of 1-based component indices: a linear extension of
    the data-flow order, incomparable pairs by ascending occurrence count
    of their variables in the original spec, then by index; components
    outside the order sort last by the same tie rules."""
    dfo = data_flow_order(components)
    covered = dfo.covers()
    n = len(components)

    def weight(i):
        return sum(spec.occurrences[v] for v in components[i - 1].variables)

    succs = {i: set() for i in covered}
    preds = {i: 0 for i in covered}
    for (i, j) in dfo.f_edges:
        if j not in succs[i]:
            succs[i].add(j)
            preds[j] += 1
    ready = [(weight(i), i) for i in covered if preds[i] == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        _, i = heapq.heappop(ready)
        out.append(i)
        for j in sorted(succs[i]):
            preds[j] -= 1
            if preds[j] == 0:
                heapq.heappush(ready, (weight(j), j))
    rest = sorted(set(range(1, n + 1)) - covered, key=lambda i: (weight(i), i))
    return out + rest


@dataclass(frozen=True)
class Strategy:
    kind: str  # S1..S4, or "custom" with its map
    custom: Optional[RecompositionMap] = None

    def __post_init__(self):
        if self.kind not in KINDS + ("custom",):
            raise ValueError("unknown strategy kind %r" % self.kind)
        if (self.kind == "custom") != (self.custom is not None):
            raise ValueError("strategy %r %s" % (
                self.kind,
                "needs a map" if self.kind == "custom" else "takes no map"))


def make_strategy(kind, n):
    """Recomposition map over n components already in total order.

    S1 gives every non-property component its own group; S2 lumps them
    all into one group; S3 keeps all but the last in the property group;
    S4 is monolithic.  With one component all four coincide.
    """
    if n < 1:
        raise ValueError("need at least one component")
    if kind not in KINDS:
        raise ValueError("unknown strategy kind %r" % kind)
    pairs = [(1, P)]
    if n == 1 or kind == S4:
        pairs += [(i, P) for i in range(2, n + 1)]
    elif kind == S1:
        pairs += [(i, i - 1) for i in range(2, n + 1)]
    elif kind == S2:
        pairs += [(i, 1) for i in range(2, n + 1)]
    else:  # S3
        pairs += [(i, P) for i in range(2, n)]
        pairs.append((n, 1))
    return make_map(pairs)
