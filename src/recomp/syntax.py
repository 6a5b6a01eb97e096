"""Abstract syntax for the restricted specification language.

A specification is a set of constants bound to finite values, an ordered
list of state variables, an initial-state conjunct list, a list of
parameterized actions whose bodies are conjunct lists, a transition
relation that existentially quantifies one parameter over a finite domain
and disjoins the action applications, and named state-predicate
properties.

Expression nodes are frozen dataclasses, so whole specifications are
immutable, hashable and safe to share across worker processes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Optional


class SpecError(Exception):
    """Malformed specification (syntax, scoping, or shape violations)."""


# --------------------------------------------------------------------------
# Expression nodes


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Name(Expr):
    id: str


@dataclass(frozen=True)
class Prime(Expr):
    id: str


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool


@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class StrLit(Expr):
    value: str


@dataclass(frozen=True)
class SetLit(Expr):
    elems: tuple


@dataclass(frozen=True)
class TupleLit(Expr):
    elems: tuple


@dataclass(frozen=True)
class RecordLit(Expr):
    fields: tuple  # of (name, Expr)


@dataclass(frozen=True)
class FuncLit(Expr):
    var: str
    domain: Expr
    body: Expr


@dataclass(frozen=True)
class Apply(Expr):
    fn: Expr
    arg: Expr


@dataclass(frozen=True)
class Except(Expr):
    fn: Expr
    key: Expr
    value: Expr


@dataclass(frozen=True)
class Union(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class In(Expr):
    elem: Expr
    set: Expr


@dataclass(frozen=True)
class Eq(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr


@dataclass(frozen=True)
class And(Expr):
    operands: tuple


@dataclass(frozen=True)
class Or(Expr):
    operands: tuple


@dataclass(frozen=True)
class Implies(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Forall(Expr):
    var: str
    domain: Expr
    body: Expr


@dataclass(frozen=True)
class Exists(Expr):
    var: str
    domain: Expr
    body: Expr


@dataclass(frozen=True)
class Unchanged(Expr):
    names: tuple  # of str


# --------------------------------------------------------------------------
# Top-level structures


@dataclass(frozen=True)
class ActionDef:
    name: str
    param: str
    conjuncts: tuple  # of Expr

    @cached_property
    def kinds(self):
        """`classify_conjunct` of each conjunct, computed once per action."""
        return tuple(classify_conjunct(c) for c in self.conjuncts)


@dataclass(frozen=True)
class PropertyDef:
    name: str
    body: Expr


@dataclass(frozen=True)
class SpecAst:
    name: str
    constants: tuple  # of str
    variables: tuple  # of str, vars-tuple order
    init: tuple  # of Expr, one conjunct per element
    actions: tuple  # of ActionDef
    next_var: Optional[str]  # the bound parameter of the transition relation
    next_domain: Optional[Expr]
    properties: tuple = ()  # of PropertyDef
    config: tuple = ()  # of (constant name, value), sorted by name

    def property(self, name):
        for p in self.properties:
            if p.name == name:
                return p
        raise SpecError("unknown property %r in %s" % (name, self.name))

    @cached_property
    def occurrences(self):
        """Syntactic occurrences of each name in Init and the actions, plus
        one per state variable for the vars tuple; counted once per spec."""
        out = Counter(self.variables)
        for e in self.init + tuple(c for a in self.actions
                                   for c in a.conjuncts):
            for x in _walk(e):
                if isinstance(x, (Name, Prime)):
                    out[x.id] += 1
                elif isinstance(x, Unchanged):
                    out.update(x.names)
        return out


# --------------------------------------------------------------------------
# Syntactic queries


def _walk(e):
    yield e
    for f in e.__dataclass_fields__:
        v = getattr(e, f)
        if isinstance(v, Expr):
            yield from _walk(v)
        elif isinstance(v, tuple):
            for x in v:
                if isinstance(x, Expr):
                    yield from _walk(x)
                elif isinstance(x, tuple) and len(x) == 2 and isinstance(x[1], Expr):
                    yield from _walk(x[1])  # record fields


def free_idents(e):
    """Unbound identifiers of an expression; primed and unprimed collapse."""
    out = set()

    def go(x, bound):
        if isinstance(x, Name):
            if x.id not in bound:
                out.add(x.id)
        elif isinstance(x, Prime):
            if x.id not in bound:
                out.add(x.id)
        elif isinstance(x, Unchanged):
            out.update(n for n in x.names if n not in bound)
        elif isinstance(x, (FuncLit, Forall, Exists)):
            go(x.domain, bound)
            go(x.body, bound | {x.var})
        elif isinstance(x, RecordLit):
            for _, v in x.fields:
                go(v, bound)
        else:
            for f in x.__dataclass_fields__:
                v = getattr(x, f)
                if isinstance(v, Expr):
                    go(v, bound)
                elif isinstance(v, tuple):
                    for item in v:
                        if isinstance(item, Expr):
                            go(item, bound)
    go(e, frozenset())
    return out


def free_vars(spec, e):
    """State variables occurring in an expression."""
    return free_idents(e) & set(spec.variables)


def symbolic_actions(spec):
    return {a.name for a in spec.actions}


def string_literals(e):
    """The string literals of an expression."""
    return {x.value for x in _walk(e) if isinstance(x, StrLit)}


def has_primes(e):
    return any(isinstance(x, (Prime, Unchanged)) for x in _walk(e))


def classify_conjunct(c):
    """One of "guard", "update", "frame"; raises on malformed conjuncts."""
    if isinstance(c, Unchanged):
        return "frame"
    if isinstance(c, Eq) and isinstance(c.left, Prime):
        if has_primes(c.right):
            raise SpecError("update right-hand side must not contain primes")
        return "update"
    if has_primes(c):
        raise SpecError("conjunct is neither a guard, an update, nor a frame")
    return "guard"


def validate(spec):
    """Check the structural invariants of a well-formed specification."""
    declared = set(spec.constants) | set(spec.variables)
    if len(set(spec.variables)) != len(spec.variables):
        raise SpecError("duplicate variable declaration")
    for c in spec.init:
        if not (isinstance(c, Eq) and isinstance(c.left, Name)
                and c.left.id in spec.variables):
            raise SpecError("Init conjunct must have the shape `v = e`")
        if free_idents(c.right) - set(spec.constants):
            raise SpecError(
                "Init value for %s must be closed over constants" % c.left.id)
    inited = {c.left.id for c in spec.init}
    missing = set(spec.variables) - inited
    if missing:
        raise SpecError("variables without an Init conjunct: %s"
                        % ", ".join(sorted(missing)))
    action_names = [a.name for a in spec.actions]
    if len(set(action_names)) != len(action_names):
        raise SpecError("duplicate action definition")
    for a in spec.actions:
        if not a.conjuncts:
            raise SpecError("action %s has an empty body" % a.name)
        scope = declared | {a.param}
        for c, kind in zip(a.conjuncts, a.kinds):
            unknown = free_idents(c) - scope
            if unknown:
                raise SpecError("action %s references undeclared %s"
                                % (a.name, ", ".join(sorted(unknown))))
            if kind == "update" and c.left.id not in spec.variables:
                raise SpecError("action %s primes non-variable %s"
                                % (a.name, c.left.id))
            if kind == "frame":
                bad = set(c.names) - set(spec.variables)
                if bad:
                    raise SpecError("UNCHANGED over non-variables %s"
                                    % ", ".join(sorted(bad)))
        for c in a.conjuncts:
            for x in _walk(c):
                if isinstance(x, (FuncLit, Forall, Exists)) and has_primes(x.domain):
                    raise SpecError("quantifier domain contains primes")
    if spec.actions and spec.next_domain is None:
        raise SpecError("specification with actions needs a Next domain")
    if spec.next_domain is not None:
        if free_idents(spec.next_domain) - set(spec.constants):
            raise SpecError("Next domain must not contain state variables")
    for p in spec.properties:
        if has_primes(p.body):
            raise SpecError("property %s contains primes" % p.name)
        unknown = free_idents(p.body) - declared
        if unknown:
            raise SpecError("property %s references undeclared %s"
                            % (p.name, ", ".join(sorted(unknown))))
    bound = {name for name, _ in spec.config}
    unbound = set(spec.constants) - bound
    if unbound:
        raise SpecError("constants without a CONFIG binding: %s"
                        % ", ".join(sorted(unbound)))
    return spec
