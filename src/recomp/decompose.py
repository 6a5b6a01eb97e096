"""Variable-partition decomposition of a specification.

A spec is split into components with pairwise-disjoint variable sets:
the first component receives the variables the checked property depends
on (closed under conjunct-level coupling), and the remainder is sliced
off and split again until nothing is left.  Recomposing all components
and normalizing gives back the normalized input, and the property's
variables always land in the first component.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import syntax as sx
from .syntax import SpecError


@dataclass(frozen=True)
class Partition:
    v_c: frozenset
    v_t: frozenset


def occurs(spec, v):
    """Variables coupled to `v` through some non-frame action conjunct.

    Frame conjuncts mention every untouched variable, so including them
    would glue all variables together; they carry no real coupling and
    are regenerated by slicing, hence excluded here.
    """
    out = set()
    for a in spec.actions:
        for c, kind in zip(a.conjuncts, a.kinds):
            if kind == "frame":
                continue
            bc = sx.free_vars(spec, c) - {a.param}
            if bc & v:
                out |= bc
    return out


def fixpoint(op, x):
    x = set(x)
    while True:
        y = x | op(x)
        if y == x:
            return x
        x = y


def partition(spec, v):
    if not v or not v <= set(spec.variables):
        raise SpecError("partition seed must be a nonempty variable subset")
    v_c = frozenset(fixpoint(lambda s: occurs(spec, s), v))
    return Partition(v_c, frozenset(spec.variables) - v_c)


def slice_spec(spec, v):
    """Restrict a spec to the variables in v.

    Non-frame conjuncts survive iff all their variables lie in v; frame
    conjuncts are dropped and regenerated over the unupdated v-variables.
    Actions with no surviving conjunct are removed entirely.
    """
    v = set(v)
    variables = tuple(x for x in spec.variables if x in v)
    init = tuple(c for c in spec.init if c.left.id in v)
    actions = []
    for a in spec.actions:
        kept = []
        updated = set()
        for c, kind in zip(a.conjuncts, a.kinds):
            if kind == "frame":
                continue
            if sx.free_vars(spec, c) - {a.param} <= v:
                kept.append(c)
                if kind == "update":
                    updated.add(c.left.id)
            elif kind == "update" and c.left.id in v:
                raise SpecError(
                    "cannot slice %s to %s: update of %s in action %s also "
                    "reads outside the slice"
                    % (spec.name, sorted(v), c.left.id, a.name))
        if not kept:
            continue
        frame = tuple(x for x in variables if x not in updated)
        if frame:
            kept.append(sx.Unchanged(frame))
        actions.append(sx.ActionDef(a.name, a.param, tuple(kept)))
    properties = tuple(p for p in spec.properties
                       if sx.free_vars(spec, p.body) <= v)
    return sx.SpecAst(
        name=spec.name,
        constants=spec.constants,
        variables=variables,
        init=init,
        actions=tuple(actions),
        next_var=spec.next_var,
        next_domain=spec.next_domain,
        properties=properties,
        config=spec.config,
    )


def _pick_variable(original, v_t):
    """Deterministic replacement for the free choice of the next seed
    variable: fewest syntactic occurrences in the original spec, ties
    broken alphabetically."""
    return min(sorted(v_t), key=lambda v: (sx.count_occurrences(original, v), v))


def decompose_steps(spec, prop):
    """Iterator over (component, remainder-after-slicing) pairs; the last
    remainder is None.  Exposed so the loop invariant (input equals the
    components so far composed with the remainder) can be tested."""
    seed = sx.free_vars(spec, prop.body)
    if not seed:
        # a constant property constrains no variables; anchor arbitrarily
        seed = {spec.variables[0]} if spec.variables else set()
    if not seed:
        yield spec, None
        return
    rest = spec
    while True:
        p = partition(rest, seed)
        if not p.v_t:
            yield rest, None
            return
        comp = slice_spec(rest, p.v_c)
        rest = slice_spec(rest, p.v_t)
        yield comp, rest
        seed = {_pick_variable(spec, p.v_t)}


def decompose(spec, prop):
    """Components C1..Cn; C1 carries all of the property's variables."""
    extra = (sx.free_idents(prop.body) - set(spec.variables)
             - set(spec.constants))
    if extra:
        raise SpecError("property %s references unknown variables: %s"
                        % (prop.name, ", ".join(sorted(extra))))
    comps = [c for c, _ in decompose_steps(spec, prop)]
    return [replace(c, name="%s_C%d" % (spec.name, i + 1))
            for i, c in enumerate(comps)]
