"""Spec-level helpers that only the tests use.

`normalize` puts a spec in a canonical form, so that the decomposition
contract (slicing, then composing the slices, gives back the spec) can be
checked as structural equality.  `init_states` evaluates a spec's
initial states on their own, which the package only does as part of an
LTS build.
"""

from recomp.semantics import _init_and_domain
from recomp.syntax import ActionDef, SpecAst, Unchanged, classify_conjunct


def init_states(spec):
    """The (at most one, by the `v = e` Init discipline) initial states."""
    return _init_and_domain(spec)[0]


def _sort_key(e):
    return repr(e)


def normalize_action(a):
    guards, updates, frame_vars = [], [], []
    for c in a.conjuncts:
        kind = classify_conjunct(c)
        if kind == "guard":
            guards.append(c)
        elif kind == "update":
            updates.append(c)
        else:
            frame_vars.extend(c.names)
    guards = sorted(set(guards), key=_sort_key)
    updates = sorted(set(updates), key=lambda c: (c.left.id, _sort_key(c)))
    body = tuple(guards) + tuple(updates)
    if frame_vars:
        body += (Unchanged(tuple(sorted(set(frame_vars)))),)
    return ActionDef(a.name, a.param, body)


def normalize(spec):
    """Canonical form: sorted declarations, deduplicated and ordered
    conjuncts (guards, then updates, then one merged frame), actions
    sorted by name.  Idempotent; composition-and-slicing round trips are
    checked as structural equality of normal forms."""
    actions = tuple(sorted((normalize_action(a) for a in spec.actions),
                           key=lambda a: a.name))
    init = tuple(sorted(set(spec.init), key=_sort_key))
    return SpecAst(
        name=spec.name,
        constants=tuple(sorted(spec.constants)),
        variables=tuple(sorted(spec.variables)),
        init=init,
        actions=actions,
        next_var=spec.next_var,
        next_domain=spec.next_domain,
        properties=tuple(sorted(spec.properties, key=lambda p: p.name)),
        config=tuple(sorted(spec.config)),
    )
