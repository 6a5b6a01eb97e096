"""Finite values manipulated by specifications.

A value is a tagged tuple ``(tag, payload)``.  Tags are short strings and
payloads are built exclusively from Python immutables, so values are
hashable, structurally comparable, and totally ordered by plain tuple
comparison (the tag disambiguates across kinds).  Collections are kept in
canonical sorted form at construction time, which makes equality and
hashing structural for free.

Tags:
  "bool"  payload bool
  "int"   payload int
  "str"   payload str (string atoms)
  "set"   payload tuple of values, sorted, deduplicated
  "rec"   payload tuple of (field, value) pairs, sorted by field
  "fun"   payload tuple of (key, value) pairs, sorted by key
  "tup"   payload tuple of values, in order
"""

from __future__ import annotations


TRUE = ("bool", True)
FALSE = ("bool", False)


class EvalError(Exception):
    """Raised when expression evaluation cannot produce a value."""


def mk_bool(b):
    return TRUE if b else FALSE


def mk_set(elems):
    return ("set", tuple(sorted(set(elems))))


def mk_rec(pairs):
    return ("rec", tuple(sorted(pairs)))


def mk_fun(pairs):
    return ("fun", tuple(sorted(pairs)))


def is_true(v):
    if v[0] != "bool":
        raise EvalError("expected a boolean, got %s" % fmt_value(v))
    return v[1]


def set_elems(v):
    if v[0] != "set":
        raise EvalError("expected a set, got %s" % fmt_value(v))
    return v[1]


def set_union(a, b):
    return ("set", tuple(sorted(set(set_elems(a)) | set(set_elems(b)))))


def set_member(x, s):
    return mk_bool(x in set_elems(s))


def apply_value(f, k):
    """Function application; also covers 1-based tuple indexing."""
    if f[0] == "fun":
        for key, val in f[1]:
            if key == k:
                return val
        raise EvalError("argument %s outside function domain" % fmt_value(k))
    if f[0] == "tup":
        if k[0] != "int" or not 1 <= k[1] <= len(f[1]):
            raise EvalError("bad tuple index %s" % fmt_value(k))
        return f[1][k[1] - 1]
    raise EvalError("cannot apply %s" % fmt_value(f))


def except_value(f, k, v):
    """Functional update of one point of a function's graph."""
    if f[0] != "fun":
        raise EvalError("EXCEPT on a non-function %s" % fmt_value(f))
    if all(key != k for key, _ in f[1]):
        raise EvalError("EXCEPT key %s outside function domain" % fmt_value(k))
    return ("fun", tuple((key, v if key == k else val) for key, val in f[1]))


def add_values(a, b):
    if a[0] != "int" or b[0] != "int":
        raise EvalError("arithmetic on non-integers")
    return ("int", a[1] + b[1])


def fmt_value(v):
    """Render a value in the concrete syntax accepted by the parser."""
    tag, payload = v
    if tag == "bool":
        return "TRUE" if payload else "FALSE"
    if tag == "int":
        return str(payload)
    if tag == "str":
        return '"%s"' % payload
    if tag == "set":
        return "{%s}" % ", ".join(fmt_value(x) for x in payload)
    if tag == "rec":
        return "[%s]" % ", ".join("%s |-> %s" % (f, fmt_value(x)) for f, x in payload)
    if tag == "fun":
        return "(%s)" % " @@ ".join(
            "%s :> %s" % (fmt_value(k), fmt_value(x)) for k, x in payload
        )
    if tag == "tup":
        return "<<%s>>" % ", ".join(fmt_value(x) for x in payload)
    raise EvalError("unknown value tag %r" % tag)
