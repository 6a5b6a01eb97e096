"""Decomposition of a specification into components.

A spec's variables are split into blocks: the connected components of
the coupling graph, in which two variables are joined when they occur
together in a non-frame action conjunct.  Frames couple nothing: an
`UNCHANGED` conjunct names variables its action leaves alone, and a
slice keeps the names that lie in it.  The first block is the union of
the blocks that hold the checked property's variables; each later one
is the block of the leftover variable with the fewest occurrences in
the spec, ties broken by name; `component_blocks` lists them, and the
whole-system search counts them without slicing.  Each component is the
spec sliced onto one block (`slice_spec`), so slicing onto the union of
any components' blocks is their composition.
"""

from __future__ import annotations

from dataclasses import replace

from . import syntax as sx
from .syntax import SpecError


def slice_spec(spec, v):
    """Restrict a spec to the variables in v.

    Non-frame conjuncts survive iff all their variables lie in v; the
    frames' names in v survive as one frame, in written order, at the
    end.  Actions with no surviving non-frame conjunct are removed
    entirely.
    """
    v = set(v)
    variables = tuple(x for x in spec.variables if x in v)
    init = tuple(c for c in spec.init if c.left.id in v)
    actions = []
    for a, reads in zip(spec.actions, spec.conjunct_vars):
        kept = []
        frame = {}  # an ordered set
        for c, kind, r in zip(a.conjuncts, a.kinds, reads):
            if kind == "frame":
                frame.update(dict.fromkeys(x for x in c.names if x in v))
            elif r <= v:
                kept.append(c)
            elif kind == "update" and c.left.id in v:
                raise SpecError(
                    "cannot slice %s to %s: update of %s in action %s also "
                    "reads outside the slice"
                    % (spec.name, sorted(v), c.left.id, a.name))
        if not kept:
            continue
        if frame:
            kept.append(sx.Unchanged(tuple(frame)))
        actions.append(sx.ActionDef(a.name, a.param, tuple(kept)))
    properties = tuple(p for p, r in zip(spec.properties, spec.property_vars)
                       if r <= v)
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


def _blocks(spec):
    """Each variable's block: the variables it is coupled to, directly or
    through others, by the non-frame conjuncts; a variable in none of
    them is a block of its own."""
    block = {v: {v} for v in spec.variables}
    for a, reads in zip(spec.actions, spec.conjunct_vars):
        for kind, r in zip(a.kinds, reads):
            if kind == "frame":
                continue
            joined = set()
            for v in r:
                joined |= block[v]
            for v in joined:
                block[v] = joined
    return block


def component_blocks(spec, prop):
    """The variable blocks of components C1..Cn; the first holds all of
    the property's variables."""
    extra = (sx.free_idents(prop.body) - set(spec.variables)
             - set(spec.constants))
    if extra:
        raise SpecError("property %s references unknown variables: %s"
                        % (prop.name, ", ".join(sorted(extra))))
    block = _blocks(spec)
    rest = set(spec.variables)
    # a constant property constrains no variables; anchor arbitrarily
    seed = sx.free_vars(spec, prop.body) or set(spec.variables[:1])
    blocks = []
    while rest:
        b = set().union(*(block[v] for v in seed))
        blocks.append(b)
        rest -= b
        if rest:
            seed = {min(rest, key=lambda v: (spec.occurrences[v], v))}
    # a spec without variables is one component with an empty block
    return blocks or [rest]


def decompose(spec, prop):
    """Components C1..Cn: the spec sliced onto each block of variables."""
    return [replace(slice_spec(spec, b), name="%s_C%d" % (spec.name, i + 1))
            for i, b in enumerate(component_blocks(spec, prop))]
