"""Recomposition maps, static reduction, and group construction by
merging slices of one spec (`compose_specs`).

A recomposition map assigns each component (1-based index) to either the
property group "P" or a numbered group 1..m; it must be surjective and
must send component 1 to "P".  Static reduction drops components whose
action alphabets can never influence component 1, directly or
transitively, then renumbers the remaining groups densely.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import syntax as sx
from .syntax import SpecError

P = "P"


def compose_specs(parts):
    """Merge slices of one spec, such as components of one decomposition.

    One part is returned as it is.  Otherwise variables and Init are
    concatenated, and actions come in order of first appearance.  An
    action's body is the conjuncts of the parts that have it, in part
    order, plus one UNCHANGED over the variables of the parts that lack
    it.  Parts that cannot be slices of one spec raise SpecError.
    """
    if len(parts) == 1:
        return parts[0]
    variables = tuple(v for p in parts for v in p.variables)
    shared = sorted({v for v in variables if variables.count(v) > 1})
    if shared:
        raise SpecError("cannot compose: %s in two parts" % ", ".join(shared))
    if len({p.config for p in parts}) > 1:
        raise SpecError("cannot compose: constant bindings differ")
    if len({p.next_domain for p in parts if p.actions}) > 1:
        raise SpecError("cannot compose: action parameter domains differ")
    params, bodies = {}, {}
    for a in [a for p in parts for a in p.actions]:
        if params.setdefault(a.name, a.param) != a.param:
            raise SpecError("cannot compose: %s has parameters %s and %s"
                            % (a.name, params[a.name], a.param))
        bodies[a.name] = bodies.get(a.name, ()) + a.conjuncts
    alphas = alphabets(parts)
    actions = []
    for name, body in bodies.items():
        frame = tuple(v for p, alpha in zip(parts, alphas)
                      if name not in alpha for v in p.variables)
        if frame:
            body += (sx.Unchanged(frame),)
        actions.append(sx.ActionDef(name, params[name], body))
    props = {}
    for prop in [q for p in parts for q in p.properties]:
        if props.setdefault(prop.name, prop).body != prop.body:
            raise SpecError("cannot compose: property %s has two bodies"
                            % prop.name)
    first = next((p for p in parts if p.actions), parts[0])
    return sx.SpecAst(
        name="_".join(p.name for p in parts),
        constants=tuple(sorted({c for p in parts for c in p.constants})),
        variables=variables,
        init=tuple(c for p in parts for c in p.init),
        actions=tuple(actions),
        next_var=first.next_var,
        next_domain=first.next_domain,
        properties=tuple(props[k] for k in sorted(props)),
        config=parts[0].config,
    )


# --------------------------------------------------------------------------
# Recomposition maps


@dataclass(frozen=True)
class RecompositionMap:
    assignment: tuple  # of (component index 1..n, group id P or 1..m)
    m: int

    def group(self, i):
        for j, g in self.assignment:
            if j == i:
                return g
        raise SpecError("component %d outside map domain" % i)

    def domain(self):
        return [j for j, _ in self.assignment]

    def validate(self):
        groups = {g for _, g in self.assignment}
        dom = self.domain()
        if len(set(dom)) != len(dom):
            raise SpecError("recomposition map assigns a component twice")
        if not dom:
            raise SpecError("recomposition map has an empty domain")
        first = min(dom)
        if self.group(first) != P:
            raise SpecError("the first component must map to the property group")
        expected = {P} | set(range(1, self.m + 1))
        if groups != expected:
            raise SpecError("recomposition map is not surjective onto "
                            "P plus 1..%d" % self.m)
        return self


def make_map(pairs):
    groups = {g for _, g in pairs}
    m = len(groups - {P})
    return RecompositionMap(tuple(sorted(pairs)), m).validate()


def alphabets(components):
    return [sx.symbolic_actions(c) for c in components]


@dataclass(frozen=True)
class ReductionTrace:
    x_sets: tuple  # of frozensets of component indices (1-based)
    kept: frozenset


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


def necessary_components(components):
    """The interaction fixpoint from the property component; its final
    set is what static reduction keeps."""
    sets = interaction_sets(alphabets(components))
    return ReductionTrace(sets, sets[-1])


def static_reduce(f, components):
    """Restrict a map to the necessary components, renumbering groups
    densely so it stays surjective."""
    f.validate()
    kept = necessary_components(components).kept
    pairs = [(j, g) for j, g in f.assignment if j in kept]
    surviving = sorted({g for _, g in pairs if g != P})
    renumber = {g: i + 1 for i, g in enumerate(surviving)}
    pairs = [(j, P if g == P else renumber[g]) for j, g in pairs]
    return RecompositionMap(tuple(pairs), len(surviving)).validate()


def build_groups(f, components):
    """The map's preimages merged into (property group, ordered groups)."""
    f.validate()
    by_group = {}
    for j, g in f.assignment:
        by_group.setdefault(g, []).append(components[j - 1])
    return (compose_specs(by_group[P]),
            [compose_specs(by_group[g]) for g in range(1, f.m + 1)])


# --------------------------------------------------------------------------
# Map files


def parse_map_file(text, components):
    """Lines `component-name = group-id` with group id P or a positive
    integer; validated as a recomposition map over the given components."""
    names = {c.name: i + 1 for i, c in enumerate(components)}
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError("map line %d: expected `name = group`" % lineno)
        name, group = (part.strip() for part in line.split("=", 1))
        if name not in names:
            raise SpecError("map line %d: unknown component %r" % (lineno, name))
        if group == P:
            g = P
        elif group.isdigit() and int(group) > 0:
            g = int(group)
        else:
            raise SpecError("map line %d: bad group id %r" % (lineno, group))
        pairs.append((names[name], g))
    if {j for j, _ in pairs} != set(names.values()):
        raise SpecError("map must cover every component exactly once")
    return make_map(pairs)


def render_map(f, components):
    lines = ["%s = %s" % (components[j - 1].name, g) for j, g in f.assignment]
    return "\n".join(lines) + "\n"
