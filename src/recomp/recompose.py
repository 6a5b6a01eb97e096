"""Recomposition maps, static reduction, and group construction.

A recomposition map assigns each component (1-based index) to either the
property group "P" or a numbered group 1..m; it must be surjective and
must send its first component to "P", which construction checks.
Static reduction, where a map first meets its components, requires the
map to cover exactly components 1..n; it drops components whose action
alphabets can never influence component 1, directly or transitively,
then renumbers the remaining groups densely.  A group of
several components is the spec sliced onto the union of their variables,
which is their composition; a group of one is that component.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter

from . import syntax as sx
from .decompose import slice_spec
from .syntax import SpecError

P = "P"


# --------------------------------------------------------------------------
# Recomposition maps


@dataclass(frozen=True)
class RecompositionMap:
    assignment: tuple  # of (component index 1..n, group id P or 1..m)
    m: int

    def __post_init__(self):
        group = dict(self.assignment)
        if len(group) != len(self.assignment):
            raise SpecError("recomposition map assigns a component twice")
        if not group:
            raise SpecError("recomposition map has an empty domain")
        if group[min(group)] != P:
            raise SpecError("the first component must map to the property group")
        if set(group.values()) != {P} | set(range(1, self.m + 1)):
            raise SpecError("recomposition map is not surjective onto "
                            "P plus 1..%d" % self.m)


def make_map(pairs):
    m = len({g for _, g in pairs} - {P})
    return RecompositionMap(tuple(sorted(pairs, key=itemgetter(0))), m)


def _require_components(f, n):
    if {j for j, _ in f.assignment} != set(range(1, n + 1)):
        raise SpecError("recomposition map must cover components 1..%d "
                        "exactly once" % n)


def alphabets(components):
    return [sx.symbolic_actions(c) for c in components]


def interaction_sets(alpha):
    """Alphabet-interaction fixpoint over symbolic alphabets, one per
    1-based component index.

    X0 = {1}; each step adds every component whose alphabet intersects
    the alphabet of the set so far; the final, repeated set is recorded,
    so convergence is visible.
    """
    alpha = {i + 1: set(a) for i, a in enumerate(alpha)}
    x = frozenset({1})
    sets = [x]
    while True:
        joint = set().union(*(alpha[i] for i in x))
        nxt = x | {j for j in alpha if alpha[j] & joint}
        sets.append(nxt)
        if nxt == x:
            return tuple(sets)
        x = nxt


def static_reduce(f, components):
    """Restrict a map over exactly these components to the necessary
    ones, renumbering groups densely so it stays surjective."""
    _require_components(f, len(components))
    kept = interaction_sets(alphabets(components))[-1]
    pairs = [(j, g) for j, g in f.assignment if j in kept]
    surviving = sorted({g for _, g in pairs if g != P})
    renumber = {g: i + 1 for i, g in enumerate(surviving)}
    pairs = [(j, P if g == P else renumber[g]) for j, g in pairs]
    return RecompositionMap(tuple(pairs), len(surviving))


def build_groups(f, components, spec):
    """The map's preimages as (property group, ordered groups); the
    components are slices of `spec`."""
    by_group = {}
    for j, g in f.assignment:
        by_group.setdefault(g, []).append(components[j - 1])

    def group(parts):
        if len(parts) == 1:
            return parts[0]
        v = {x for p in parts for x in p.variables}
        return replace(slice_spec(spec, v),
                       name="_".join(p.name for p in parts))
    return group(by_group[P]), [group(by_group[g]) for g in range(1, f.m + 1)]


# --------------------------------------------------------------------------
# Map files


def parse_map_file(text, components):
    """Lines `component-name = group-id` with group id P or a positive
    integer; a recomposition map over exactly the given components."""
    names = {c.name: i + 1 for i, c in enumerate(components)}
    pairs = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError("map line %d: expected `name = group`" % lineno)
        name, group = (part.strip() for part in line.split("=", 1))
        if name not in names:
            raise SpecError("map line %d: unknown component %r" % (lineno, name))
        if name in seen:
            raise SpecError("map line %d: component %r is assigned twice"
                            % (lineno, name))
        seen.add(name)
        if group == P:
            g = P
        elif group.isdigit() and int(group) > 0:
            g = int(group)
        else:
            raise SpecError("map line %d: bad group id %r" % (lineno, group))
        pairs.append((names[name], g))
    f = make_map(pairs)
    _require_components(f, len(components))
    return f


def render_map(f, components):
    lines = ["%s = %s" % (components[j - 1].name, g) for j, g in f.assignment]
    return "\n".join(lines) + "\n"
