"""Spec-level helpers that only the tests use.

`normalize` puts a spec in a canonical form, so that the decomposition
contract (slicing, then composing the slices, gives back the spec) can be
checked as structural equality.  `init_states` evaluates a spec's
initial states on their own, which the package only does as part of an
LTS build.  `walk` and `compiled_steps` search one build's generated
successor generator without `lts.explore`; its states are coded, and
`compiled_steps` decodes them.
"""

from collections import deque

from recomp.semantics import _compile, _init_and_domain
from recomp.syntax import ActionDef, SpecAst, Unchanged, classify_conjunct


def init_states(spec):
    """The (at most one, by the `v = e` Init discipline) initial states."""
    return _init_and_domain(spec)[0]


def walk(spec, prop=None, limit=None):
    """Search one build's compiled successor generator: (its alphabet, the
    namespace of its generated module, see `semantics._compile`, and
    `search`'s dict of steps).  The namespace's `decode` gives a coded
    state's values."""
    initials, alphabet, ns = _compile(spec, prop)
    return alphabet, ns, search(initials, ns["successors"], limit)


def search(initials, successors, limit=None):
    """Breadth-first search: a dict from each state found to its list of
    (label index, successor).  Once `limit` states are found, the states
    not yet expanded map to None."""
    steps = dict.fromkeys(initials)
    frontier = deque(steps)
    while frontier and (limit is None or len(steps) < limit):
        q = frontier.popleft()
        steps[q] = list(successors(q))
        for _, q2 in steps[q]:
            if q2 not in steps:
                steps[q2] = None
                frontier.append(q2)
    return steps


def compiled_steps(spec):
    """Each reachable state's value tuple, from the compiled successor
    generator, with its set of ((action, argument), successor values)."""
    alphabet, ns, steps = walk(spec)
    decode = ns["decode"]
    return {decode(c): {(alphabet[lab], decode(c2)) for lab, c2 in out}
            for c, out in steps.items()}


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
