"""Spec-level helpers that only the tests use.

`normalize` puts a spec in a canonical form, so that the decomposition
contract (slicing, then composing the slices, gives back the spec) can be
checked as structural equality.  `init_states` evaluates a spec's
initial states on their own, which the package only does as part of an
LTS build.  `walk` and `compiled_steps` search one build's generated
successor generator without `lts.explore`; its states are coded, and
`compiled_steps` decodes them.  `pretty` prints a spec in the layout
`recomp.parser` reads; the bundled corpus files are fixed points of
parse-then-print.
"""

from collections import deque

from recomp import syntax as sx
from recomp import values as va
from recomp.semantics import _compile, _init_and_domain
from recomp.syntax import (ActionDef, SpecAst, SpecError, Unchanged,
                           classify_conjunct)


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


# --------------------------------------------------------------------------
# Pretty-printer

_PREC = {
    "quant": 0, "implies": 1, "or": 2, "and": 3, "cmp": 4, "add": 5,
    "not": 6, "postfix": 7, "atom": 8,
}


def fmt_expr(e, prec=0):
    def wrap(level, s):
        return "(%s)" % s if prec > _PREC[level] else s

    if isinstance(e, sx.Name):
        return e.id
    if isinstance(e, sx.Prime):
        return e.id + "'"
    if isinstance(e, sx.BoolLit):
        return "TRUE" if e.value else "FALSE"
    if isinstance(e, sx.IntLit):
        return str(e.value)
    if isinstance(e, sx.StrLit):
        return '"%s"' % e.value
    if isinstance(e, sx.SetLit):
        return "{%s}" % ", ".join(fmt_expr(x) for x in e.elems)
    if isinstance(e, sx.TupleLit):
        return "<<%s>>" % ", ".join(fmt_expr(x) for x in e.elems)
    if isinstance(e, sx.RecordLit):
        return "[%s]" % ", ".join("%s |-> %s" % (f, fmt_expr(v))
                                  for f, v in e.fields)
    if isinstance(e, sx.FuncLit):
        return "[%s \\in %s |-> %s]" % (e.var, fmt_expr(e.domain),
                                        fmt_expr(e.body))
    if isinstance(e, sx.Apply):
        return wrap("postfix", "%s[%s]" % (fmt_expr(e.fn, _PREC["postfix"]),
                                           fmt_expr(e.arg)))
    if isinstance(e, sx.Except):
        return "[%s EXCEPT ![%s] = %s]" % (
            fmt_expr(e.fn), fmt_expr(e.key), fmt_expr(e.value))
    if isinstance(e, sx.Union):
        return wrap("add", "%s \\union %s" % (fmt_expr(e.left, _PREC["add"]),
                                              fmt_expr(e.right, _PREC["add"] + 1)))
    if isinstance(e, sx.Add):
        return wrap("add", "%s + %s" % (fmt_expr(e.left, _PREC["add"]),
                                        fmt_expr(e.right, _PREC["add"] + 1)))
    if isinstance(e, sx.In):
        return wrap("cmp", "%s \\in %s" % (fmt_expr(e.elem, _PREC["add"]),
                                           fmt_expr(e.set, _PREC["add"])))
    if isinstance(e, sx.Eq):
        return wrap("cmp", "%s = %s" % (fmt_expr(e.left, _PREC["add"]),
                                        fmt_expr(e.right, _PREC["add"])))
    if isinstance(e, sx.Not):
        return wrap("not", "~%s" % fmt_expr(e.operand, _PREC["not"]))
    if isinstance(e, sx.And):
        return wrap("and", " /\\ ".join(fmt_expr(x, _PREC["and"] + 1)
                                        for x in e.operands))
    if isinstance(e, sx.Or):
        return wrap("or", " \\/ ".join(fmt_expr(x, _PREC["or"] + 1)
                                       for x in e.operands))
    if isinstance(e, sx.Implies):
        return wrap("implies", "%s => %s" % (fmt_expr(e.left, _PREC["implies"] + 1),
                                             fmt_expr(e.right, _PREC["implies"])))
    if isinstance(e, (sx.Forall, sx.Exists)):
        q = "\\A" if isinstance(e, sx.Forall) else "\\E"
        return wrap("quant", "%s %s \\in %s : %s" % (
            q, e.var, fmt_expr(e.domain), fmt_expr(e.body)))
    if isinstance(e, sx.Unchanged):
        return "UNCHANGED <<%s>>" % ", ".join(e.names)
    raise SpecError("cannot print %r" % (e,))


def _fmt_conjunct(c):
    # quantifier conjuncts need parentheses in a `/\`-bulleted list
    if isinstance(c, (sx.Forall, sx.Exists)):
        return "(%s)" % fmt_expr(c)
    return fmt_expr(c, _PREC["and"] + 1)


def pretty(spec):
    """Canonical textual form; parse(pretty(parse(t))) == parse(t)."""
    lines = ["MODULE %s" % spec.name]
    if spec.constants:
        lines += ["", "CONSTANTS %s" % ", ".join(spec.constants)]
    lines += ["", "VARIABLES %s" % ", ".join(spec.variables)]
    if spec.config:
        lines += ["", "CONFIG"]
        for cname, value in spec.config:
            lines.append("  %s = %s" % (cname, va.fmt_value(value)))
    lines += ["", "INIT"]
    for c in spec.init:
        lines.append("  /\\ %s" % _fmt_conjunct(c))
    for a in spec.actions:
        lines += ["", "ACTION %s(%s)" % (a.name, a.param)]
        for c in a.conjuncts:
            lines.append("  /\\ %s" % _fmt_conjunct(c))
    if spec.actions:
        lines += ["", "NEXT \\E %s \\in %s :" % (spec.next_var,
                                                 fmt_expr(spec.next_domain))]
        for a in spec.actions:
            lines.append("  \\/ %s(%s)" % (a.name, spec.next_var))
    for p in spec.properties:
        lines += ["", "PROPERTY %s" % p.name, "  %s" % fmt_expr(p.body)]
    return "\n".join(lines) + "\n"
