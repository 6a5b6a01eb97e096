"""Concrete syntax: tokenizer and recursive-descent parser.

File layout (one module per file)::

    MODULE <name>
    CONSTANTS a, b            \\* optional
    VARIABLES v1, v2
    CONFIG                    \\* required when constants are declared
      a = <closed literal expression>
    INIT
      /\\ v1 = <expr closed over constants>
      ...
    ACTION <Name>(<param>)
      /\\ <conjunct>
      ...
    NEXT \\E <x> \\in <D> :
      \\/ <Name>(<x>)
      ...
    PROPERTY <Name>
      <state predicate>

Conjunct lists are sequences of ``/\\``-prefixed expressions; a conjunct
that is itself a quantifier must be parenthesized, because a quantifier
body extends as far right as possible.  Comments run from ``\\*`` to the
end of the line.
"""

from __future__ import annotations

import re

from . import syntax as sx
from .semantics import eval_const
from .syntax import SpecError


class ParseError(SpecError):
    def __init__(self, msg, line, col):
        super().__init__("%d:%d: %s" % (line, col, msg))
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\\\*[^\n]*)
  | (?P<nl>\n)
  | (?P<string>"[^"\n]*")
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>/\\|\\/|\\in\b|\\notin\b|\\union\b|\\E\b|\\A\b|\|->|=>|/=|<<|>>|[=~'()\[\]{},:!+])
""", re.VERBOSE)

KEYWORDS = {
    "MODULE", "CONSTANTS", "VARIABLES", "CONFIG", "INIT", "ACTION",
    "NEXT", "PROPERTY", "UNCHANGED", "EXCEPT", "TRUE", "FALSE",
}

SECTIONS = {"CONSTANTS", "VARIABLES", "CONFIG", "INIT", "ACTION", "NEXT",
            "PROPERTY"}


def tokenize(text):
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError("unexpected character %r" % text[pos], line, col)
        kind = m.lastgroup
        val = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(val)
        else:
            toks.append((kind, val, line, col))
            col += len(val)
        pos = m.end()
    toks.append(("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text):
        self.toks = tokenize(text)
        self.i = 0
        # the column of the innermost `/\` bullet being parsed (0: none)
        self.bullet = 0

    # -- token helpers

    def peek(self, k=0):
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def at(self, val):
        kind, v, _, _ = self.peek()
        return v == val and (kind != "string")

    def error(self, msg):
        _, v, line, col = self.peek()
        raise ParseError("%s (found %r)" % (msg, v or "end of file"), line, col)

    def take(self, val=None):
        kind, v, line, col = self.peek()
        if val is not None and v != val:
            self.error("expected %r" % val)
        self.i += 1
        return v

    def ident(self):
        kind, v, _, _ = self.peek()
        if kind != "ident" or v in KEYWORDS:
            self.error("expected an identifier")
        self.i += 1
        return v

    def at_section(self):
        kind, v, _, _ = self.peek()
        return (kind == "ident" and v in SECTIONS) or kind == "eof"

    # -- expressions; precedence (low to high):
    #    quantifier/implies, \/, /\, comparison, +/\union, ~, postfix

    def expr(self, no_and=False):
        if self.at("\\A") or self.at("\\E"):
            univ = self.take() == "\\A"
            var = self.ident()
            self.take("\\in")
            dom = self.expr()
            self.take(":")
            body = self.expr()
            cls = sx.Forall if univ else sx.Exists
            return cls(var, dom, body)
        left = self.or_expr(no_and)
        if self.at("=>"):
            self.take()
            return sx.Implies(left, self.expr(no_and))
        return left

    def or_expr(self, no_and=False):
        parts = [self.and_expr(no_and)]
        while self.at("\\/"):
            self.take()
            parts.append(self.and_expr(no_and))
        return parts[0] if len(parts) == 1 else sx.Or(tuple(parts))

    def and_expr(self, no_and=False):
        """A `/\\` at or left of the innermost bullet's column starts the
        next item of its conjunct list, as in TLA+, so it ends this
        expression even inside a quantifier's body."""
        parts = [self.cmp_expr()]
        while (not no_and and self.at("/\\")
               and self.peek()[3] > self.bullet):
            self.take()
            parts.append(self.cmp_expr())
        return parts[0] if len(parts) == 1 else sx.And(tuple(parts))

    def cmp_expr(self):
        left = self.add_expr()
        if self.at("="):
            self.take()
            return sx.Eq(left, self.add_expr())
        if self.at("/="):
            self.take()
            return sx.Not(sx.Eq(left, self.add_expr()))
        if self.at("\\in"):
            self.take()
            return sx.In(left, self.add_expr())
        if self.at("\\notin"):
            self.take()
            return sx.Not(sx.In(left, self.add_expr()))
        return left

    def add_expr(self):
        left = self.unary()
        while self.at("+") or self.at("\\union"):
            op = self.take()
            right = self.unary()
            left = sx.Add(left, right) if op == "+" else sx.Union(left, right)
        return left

    def unary(self):
        if self.at("~"):
            self.take()
            return sx.Not(self.unary())
        return self.postfix()

    def postfix(self):
        e = self.atom()
        while True:
            if self.at("["):
                self.take()
                arg = self.expr()
                self.take("]")
                e = sx.Apply(e, arg)
            elif self.at("'"):
                if not isinstance(e, sx.Name):
                    self.error("only a variable can be primed")
                self.take()
                e = sx.Prime(e.id)
            else:
                return e

    def atom(self):
        kind, v, _, _ = self.peek()
        if kind == "int":
            self.take()
            return sx.IntLit(int(v))
        if kind == "string":
            self.take()
            return sx.StrLit(v[1:-1])
        if v in ("TRUE", "FALSE"):
            self.take()
            return sx.BoolLit(v == "TRUE")
        if v == "UNCHANGED":
            self.take()
            self.take("<<")
            names = [self.ident()]
            while self.at(","):
                self.take()
                names.append(self.ident())
            self.take(">>")
            return sx.Unchanged(tuple(names))
        if v == "(":
            self.take()
            e = self.expr()
            self.take(")")
            return e
        if v == "{":
            self.take()
            elems = []
            if not self.at("}"):
                elems.append(self.expr())
                while self.at(","):
                    self.take()
                    elems.append(self.expr())
            self.take("}")
            return sx.SetLit(tuple(elems))
        if v == "<<":
            self.take()
            elems = []
            if not self.at(">>"):
                elems.append(self.expr())
                while self.at(","):
                    self.take()
                    elems.append(self.expr())
            self.take(">>")
            return sx.TupleLit(tuple(elems))
        if v == "[":
            return self.bracket_form()
        if kind == "ident" and v not in KEYWORDS:
            self.take()
            return sx.Name(v)
        self.error("expected an expression")

    def bracket_form(self):
        # [x \in D |-> e] | [field |-> e, ...] | [f EXCEPT ![k] = e]
        self.take("[")
        k0, v0, _, _ = self.peek()
        k1, v1, _, _ = self.peek(1)
        if k0 == "ident" and v0 not in KEYWORDS and v1 == "\\in":
            var = self.ident()
            self.take("\\in")
            dom = self.expr()
            self.take("|->")
            body = self.expr()
            self.take("]")
            return sx.FuncLit(var, dom, body)
        if k0 == "ident" and v0 not in KEYWORDS and v1 == "|->":
            fields = []
            while True:
                f = self.ident()
                self.take("|->")
                fields.append((f, self.expr()))
                if not self.at(","):
                    break
                self.take()
            self.take("]")
            return sx.RecordLit(tuple(fields))
        fn = self.expr()
        self.take("EXCEPT")
        self.take("!")
        self.take("[")
        key = self.expr()
        self.take("]")
        self.take("=")
        value = self.expr()
        self.take("]")
        return sx.Except(fn, key, value)

    # -- top level

    def conjunct_list(self):
        """The conjuncts, and the (line, column) of each one's bullet."""
        out, at = [], []
        outer = self.bullet
        while self.at("/\\"):
            at.append(self.peek()[2:])
            self.bullet = self.peek()[3]
            self.take()
            out.append(self.expr(no_and=True))
        self.bullet = outer
        if not out:
            self.error("expected a `/\\`-prefixed conjunct list")
        return tuple(out), at

    def name_list(self):
        names = [self.ident()]
        while self.at(","):
            self.take()
            names.append(self.ident())
        return names

    def spec(self):
        self.take("MODULE")
        name = self.ident()
        constants, variables = [], []
        config = []
        init = None
        actions = []
        next_var, next_domain, next_apps = None, None, None
        properties = []
        while self.peek()[0] != "eof":
            sect = self.take()
            if sect == "CONSTANTS":
                constants = self.name_list()
            elif sect == "VARIABLES":
                variables = self.name_list()
            elif sect == "CONFIG":
                while not self.at_section():
                    cname = self.ident()
                    self.take("=")
                    e = self.expr()
                    config.append((cname, e))
            elif sect == "INIT":
                init, _ = self.conjunct_list()
            elif sect == "ACTION":
                aname = self.ident()
                self.take("(")
                param = self.ident()
                self.take(")")
                body, at = self.conjunct_list()
                for c, (line, col) in zip(body, at):
                    try:
                        sx.classify_conjunct(c)
                    except SpecError as exc:
                        raise ParseError("action %s: %s" % (aname, exc),
                                         line, col) from None
                actions.append(sx.ActionDef(aname, param, body))
            elif sect == "NEXT":
                self.take("\\E")
                next_var = self.ident()
                self.take("\\in")
                next_domain = self.expr()
                self.take(":")
                next_apps = []
                while self.at("\\/"):
                    self.take()
                    app = self.ident()
                    self.take("(")
                    arg = self.ident()
                    self.take(")")
                    if arg != next_var:
                        self.error("action must be applied to %r" % next_var)
                    next_apps.append(app)
            elif sect == "PROPERTY":
                pname = self.ident()
                properties.append(sx.PropertyDef(pname, self.expr()))
            else:
                raise ParseError("unknown section %r" % sect, *self.peek()[2:])
        if init is None:
            self.error("missing INIT section")
        if actions and next_apps is None:
            self.error("missing NEXT section")
        if next_apps is not None:
            declared = {a.name for a in actions}
            if set(next_apps) != declared or len(next_apps) != len(declared):
                self.error("NEXT must apply each action exactly once")
        bound = _bind_config(constants, config)
        spec = sx.SpecAst(
            name=name,
            constants=tuple(constants),
            variables=tuple(variables),
            init=init,
            actions=tuple(actions),
            next_var=next_var,
            next_domain=next_domain,
            properties=tuple(properties),
            config=tuple(sorted(bound)),
        )
        return sx.validate(spec)


def _bind_config(constants, entries):
    """Evaluate CONFIG entries in order; later entries may use earlier ones."""
    env = {}
    out = []
    for cname, e in entries:
        if cname not in constants:
            raise SpecError("CONFIG binds undeclared constant %r" % cname)
        bad = sx.free_idents(e) - set(env)
        if bad:
            raise SpecError("CONFIG value for %s references unbound %s"
                            % (cname, ", ".join(sorted(bad))))
        env[cname] = eval_const(e, env)
        out.append((cname, env[cname]))
    return out


def parse(text):
    """Parse one module; deterministic, raises ParseError with location."""
    return _Parser(text).spec()
