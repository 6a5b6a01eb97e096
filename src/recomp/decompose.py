"""Variable-partition decomposition of a specification.

A spec's variables are split into pairwise-disjoint blocks, each closed
under conjunct-level coupling: the first block holds the variables the
checked property depends on, and each later one grows from a seed
picked among the variables left over.  Each component is the spec
sliced onto one block (`slice_spec`), so slicing onto the union of any
components' blocks is their composition, and slicing onto all of them
gives back the spec with its frames regenerated.
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


def _pick_variable(spec, v_t):
    """Deterministic replacement for the free choice of the next seed
    variable: fewest syntactic occurrences in the spec, ties broken
    alphabetically."""
    return min(v_t, key=lambda v: (spec.occurrences[v], v))


def decompose(spec, prop):
    """Components C1..Cn; C1 carries all of the property's variables.

    Each component is the spec sliced onto one block of variables.  The
    first block closes the property's variables under coupling; each
    later one closes a seed picked from the variables left over."""
    extra = (sx.free_idents(prop.body) - set(spec.variables)
             - set(spec.constants))
    if extra:
        raise SpecError("property %s references unknown variables: %s"
                        % (prop.name, ", ".join(sorted(extra))))
    rest = set(spec.variables)
    # a constant property constrains no variables; anchor arbitrarily
    seed = sx.free_vars(spec, prop.body) or set(spec.variables[:1])
    blocks = []
    while rest:
        block = partition(spec, seed).v_c
        blocks.append(block)
        rest -= block
        if rest:
            seed = {_pick_variable(spec, rest)}
    # a spec without variables is one component with an empty block
    return [replace(slice_spec(spec, b), name="%s_C%d" % (spec.name, i + 1))
            for i, b in enumerate(blocks or [rest])]
