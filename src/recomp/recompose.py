"""Syntactic parallel composition of specs, recomposition maps, group
construction, and static reduction.

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


def unit_spec():
    """Identity of spec composition: no variables, no actions."""
    return sx.SpecAst(name="Unit", constants=(), variables=(), init=(),
                      actions=(), next_var=None, next_domain=None)


def is_unit(s):
    return not s.variables and not s.actions


def _merge_configs(s, t):
    merged = dict(s.config)
    for name, val in t.config:
        if name in merged and merged[name] != val:
            raise SpecError("constant %s bound to different values" % name)
        merged[name] = val
    return tuple(sorted(merged.items()))


def _rename_body(conjuncts, old, new):
    if old == new:
        return tuple(conjuncts)
    for c in conjuncts:
        if new in sx.free_idents(c):
            raise SpecError("parameter rename %s -> %s would capture" % (old, new))
    return tuple(sx.rename_ident(c, old, new) for c in conjuncts)


def compose_specs(s, t):
    """Syntactic parallel composition of two variable-disjoint specs.

    Shared actions conjoin their bodies (parameters unified); an action
    present on one side only is framed over the other side's variables.
    """
    if is_unit(t):
        return s
    if is_unit(s):
        return t
    overlap = set(s.variables) & set(t.variables)
    if overlap:
        raise SpecError("cannot compose: shared variables %s"
                        % ", ".join(sorted(overlap)))
    if s.actions and t.actions and s.next_domain != t.next_domain:
        raise SpecError("cannot compose: action parameter domains differ")
    s_actions = {a.name: a for a in s.actions}
    t_actions = {a.name: a for a in t.actions}
    actions = []
    for a in s.actions:
        other = t_actions.get(a.name)
        if other is not None:
            body = a.conjuncts + _rename_body(other.conjuncts, other.param,
                                              a.param)
        else:
            body = a.conjuncts + (sx.Unchanged(t.variables),)
        actions.append(sx.ActionDef(a.name, a.param, body))
    for a in t.actions:
        if a.name not in s_actions:
            actions.append(sx.ActionDef(a.name, a.param,
                                        a.conjuncts + (sx.Unchanged(s.variables),)))
    props = {p.name: p for p in s.properties}
    for p in t.properties:
        if p.name in props and props[p.name].body != p.body:
            raise SpecError("property %s defined differently on both sides"
                            % p.name)
        props[p.name] = p
    return sx.SpecAst(
        name="%s_%s" % (s.name, t.name),
        constants=tuple(sorted(set(s.constants) | set(t.constants))),
        variables=s.variables + t.variables,
        init=s.init + t.init,
        actions=tuple(actions),
        next_var=s.next_var if s.next_var is not None else t.next_var,
        next_domain=s.next_domain if s.next_domain is not None else t.next_domain,
        properties=tuple(props[k] for k in sorted(props)),
        config=_merge_configs(s, t),
    )


def compose_all(specs):
    out = unit_spec()
    for s in specs:
        out = compose_specs(out, s)
    return out


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
    """Fold the map's preimages into (property group, ordered groups)."""
    f.validate()
    by_group = {}
    for j, g in f.assignment:
        by_group.setdefault(g, []).append(components[j - 1])
    d_p = compose_all(by_group[P])
    groups = [compose_all(by_group[g]) for g in range(1, f.m + 1)]
    return d_p, groups


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
