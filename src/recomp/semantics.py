"""Explicit-state semantics: evaluation and state-graph generation.

States are tuples of values aligned with the spec's variable order.
Every spec expression is evaluated by Python code that `_Codegen`
generates.  `eval_const` evaluates expressions closed over the constants
(CONFIG values, Init right-hand sides, the Next domain).  Each LTS build
(`to_lts`, `err_lts`, `err_reach`) compiles one generated module that
holds the spec's successor generator and, for a property, its predicate,
and builds its state graph with `lts.explore`, the breadth-first LTS
builder.  Set, record and tuple literals built from literals, constants
and the action parameter are evaluated once per build, when the module
runs: a constant one as a module-level value, one that reads the
parameter as a module-level list indexed by the element's position in
the Next domain.  Only these constructors are hoisted, since they cannot
fail; every other operator runs where the spec evaluates it.  The test
suite cross-checks the compiled code against an independent oracle.
"""

from __future__ import annotations

from operator import itemgetter

from . import syntax as sx
from . import values as va
from .lts import explore, pi_trace
from .syntax import SpecError
from .values import EvalError

DEFAULT_BOUND = 10_000_000


# --------------------------------------------------------------------------
# Compiled evaluation
#
# A spec's actions become one generator `successors(q)` yielding (label
# index, successor tuple) pairs; a property becomes `prop(q)` and a
# closed expression `val()`.  In boolean positions (guards, property
# bodies, the operands of the logical operators and quantifier bodies)
# the code computes Python bools, and `_is_true` checks any other
# expression found there.  Everywhere else it computes tagged values:
# scalar literals and tuples are written as tagged tuples, a boolean
# operator's result is wrapped as `_B_TRUE`/`_B_FALSE`, and the rest goes
# through the helpers in `values`.
#
# Constructors are hoisted.  A set, record or tuple literal whose leaves
# are literals and CONFIG constants is evaluated once, when the module is
# run, and bound to a module-level name `_h<k>`.  One whose leaves also
# include the action parameter becomes a module-level list `_h<k>` over
# `_dom`, the Next domain, and is read as `_h<k>[j]`, j being the
# element's position in `_dom`.  Only constructors are hoisted: they
# cannot fail, whereas union, application, EXCEPT, `+` and function
# literals can raise EvalError and so must run only where, and when, the
# spec evaluates them (after the guards before them hold).
#
# Application and EXCEPT at the action parameter pass its position j in
# `_dom` along: `_apply_at(f, _d, j)` and `_except_at(f, _d, j, v)`.  A
# function over the Next domain has `_d`'s pair at position j of its
# sorted graph, so the helper finds it with one comparison; for any other
# function, a tuple or a key outside the domain, the comparison fails and
# the helper scans as `_apply`/`_except` do, with the same results and
# errors.

_BOOLEAN = (sx.Eq, sx.In, sx.Not, sx.And, sx.Or, sx.Implies, sx.Forall,
            sx.Exists)
_CONSTRUCTORS = (sx.SetLit, sx.TupleLit, sx.RecordLit)
_LITERALS = (sx.IntLit, sx.StrLit, sx.BoolLit)
# the Python name of the action parameter; `j` is its position in `_dom`
_PARAM = "_d"


class _Codegen:
    def __init__(self, consts, variables=(), name="const"):
        self.name = name
        self.variables = variables
        self.var_index = {v: i for i, v in enumerate(variables)}
        self.consts = dict(consts)
        self.hoisted = {}  # source of a hoisted value -> its name

    def expr(self, e, bound):
        """Python expression for the tagged value of e.  `bound` maps the
        names bound around e to their Python names."""
        go = lambda x: self.expr(x, bound)
        if isinstance(e, sx.Name):
            if e.id in bound:
                return bound[e.id]
            if e.id in self.var_index:
                return "q[%d]" % self.var_index[e.id]
            if e.id in self.consts:
                return "c_" + e.id
            raise EvalError("unbound identifier %r" % e.id)
        if isinstance(e, sx.BoolLit):
            return "_B_TRUE" if e.value else "_B_FALSE"
        if isinstance(e, _BOOLEAN):
            return "(_B_TRUE if %s else _B_FALSE)" % self.cond(e, bound)
        if isinstance(e, (sx.IntLit, sx.StrLit)):
            tag = "int" if isinstance(e, sx.IntLit) else "str"
            return repr((tag, e.value))
        if isinstance(e, _CONSTRUCTORS):
            kind = self._leaves(e, bound)
            return (_construct(e, go) if kind is None
                    else self._hoist(e, bound, kind))
        if isinstance(e, sx.FuncLit):
            body = self.expr(e.body, _bind(bound, e.var))
            return ("_mk_fun([(b_%s, %s) for b_%s in _elems(%s)])"
                    % (e.var, body, e.var, go(e.domain)))
        if isinstance(e, sx.Apply):
            if self._is_param(e.arg, bound):
                return "_apply_at(%s, %s, j)" % (go(e.fn), _PARAM)
            return "_apply(%s, %s)" % (go(e.fn), go(e.arg))
        if isinstance(e, sx.Except):
            if self._is_param(e.key, bound):
                return "_except_at(%s, %s, j, %s)" % (go(e.fn), _PARAM,
                                                     go(e.value))
            return "_except(%s, %s, %s)" % (go(e.fn), go(e.key), go(e.value))
        if isinstance(e, sx.Union):
            return "_union(%s, %s)" % (go(e.left), go(e.right))
        if isinstance(e, sx.Add):
            return "_add(%s, %s)" % (go(e.left), go(e.right))
        raise EvalError("cannot compile %r" % (e,))

    @staticmethod
    def _is_param(e, bound):
        return isinstance(e, sx.Name) and bound.get(e.id) == _PARAM

    def _leaves(self, e, bound):
        """For a tree of constructors, "const" when its leaves are literals
        and constants, "param" when the action parameter is also among
        them, and None for any other expression."""
        if isinstance(e, _LITERALS):
            return "const"
        if isinstance(e, sx.Name):
            if e.id in bound:
                return "param" if bound[e.id] == _PARAM else None
            if e.id in self.consts and e.id not in self.var_index:
                return "const"
            return None
        if not isinstance(e, _CONSTRUCTORS):
            return None
        parts = ([x for _, x in e.fields] if isinstance(e, sx.RecordLit)
                 else e.elems)
        kinds = {self._leaves(x, bound) for x in parts}
        if None in kinds:
            return None
        return "param" if "param" in kinds else "const"

    def _hoist(self, e, bound, kind):
        """Read of the module-level name holding the constructor tree e,
        or, for kind "param", its list over `_dom`."""
        def whole(x):
            return (_construct(x, whole) if isinstance(x, _CONSTRUCTORS)
                    else self.expr(x, bound))
        src = whole(e)
        if kind == "param":
            src = "[%s for %s in _dom]" % (src, _PARAM)
        name = self.hoisted.setdefault(src, "_h%d" % len(self.hoisted))
        return name + "[j]" if kind == "param" else name

    def cond(self, e, bound):
        """Python expression for e as a Python bool; where e is not a
        boolean the code raises EvalError."""
        go = lambda x: self.cond(x, bound)
        if isinstance(e, sx.BoolLit):
            return repr(e.value)
        if isinstance(e, sx.Eq):
            return "(%s == %s)" % (self.expr(e.left, bound),
                                   self.expr(e.right, bound))
        if isinstance(e, sx.In):
            return "(%s in _elems(%s))" % (self.expr(e.elem, bound),
                                           self.expr(e.set, bound))
        if isinstance(e, sx.Not):
            return "(not %s)" % go(e.operand)
        if isinstance(e, sx.And):
            return "(%s)" % " and ".join(go(x) for x in e.operands)
        if isinstance(e, sx.Or):
            return "(%s)" % " or ".join(go(x) for x in e.operands)
        if isinstance(e, sx.Implies):
            return "(not %s or %s)" % (go(e.left), go(e.right))
        if isinstance(e, (sx.Forall, sx.Exists)):
            quant = "all" if isinstance(e, sx.Forall) else "any"
            body = self.cond(e.body, _bind(bound, e.var))
            return ("%s(%s for b_%s in _elems(%s))"
                    % (quant, body, e.var, self.expr(e.domain, bound)))
        return "_is_true(%s)" % self.expr(e, bound)

    def successors_fn(self, actions):
        """Source of `def successors(q)`.  For each action in order, and
        each element `_d` of the Next domain `_dom` in order, at position
        j, it yields (action index * `_n` + j, successor).  Guards
        that come before the first guard reading the parameter run once
        per action, and only when the domain is non-empty: they give the
        same result for every element."""
        lines = ["def successors(q):"]
        for k, action in enumerate(actions):
            p = action.param
            bound = {p: _PARAM}
            updates = {}
            framed = set()
            guards = []
            for c in action.conjuncts:
                kind = sx.classify_conjunct(c)
                if kind == "guard":
                    guards.append(c)
                elif kind == "update":
                    updates.setdefault(c.left.id, []).append(c.right)
                else:
                    framed.update(c.names)
            loose = set(self.variables) - set(updates) - framed
            if loose:
                raise SpecError("action %s leaves %s unconstrained"
                                % (action.name, ", ".join(sorted(loose))))
            lead = 0
            while lead < len(guards) and p not in sx.free_idents(guards[lead]):
                lead += 1
            pad = "    "
            if lead:
                lines.append(pad + "if _n and %s:" % " and ".join(
                    self.cond(g, bound) for g in guards[:lead]))
                pad += "    "
            lines.append(pad + "for j, %s in enumerate(_dom):" % _PARAM)
            pad += "    "
            for g in guards[lead:]:
                lines.append(pad + "if not %s: continue" % self.cond(g, bound))
            for v, rhss in updates.items():
                lines.append(pad + "n_%s = %s" % (v, self.expr(rhss[0], bound)))
                for extra in rhss[1:]:
                    lines.append(pad + "if n_%s != %s: continue"
                                 % (v, self.expr(extra, bound)))
                if v in framed:
                    lines.append(pad + "if n_%s != q[%d]: continue"
                                 % (v, self.var_index[v]))
            parts = ("n_%s" % v if v in updates else "q[%d]" % i
                     for i, v in enumerate(self.variables))
            lines.append(pad + "yield %d * _n + j, (%s)"
                         % (k, "".join(x + ", " for x in parts)))
        if not actions:
            lines.append("    yield from ()")
        return "\n".join(lines) + "\n"

    def predicate_fn(self, body):
        return "def prop(q):\n    return %s\n" % self.cond(body, {})

    def build(self, src, **names):
        """Namespace of the generated source, after the hoisted values,
        run with the value helpers, the constants `c_<name>` and
        `names`."""
        ns = {
            "_mk_set": va.mk_set, "_mk_rec": va.mk_rec, "_mk_fun": va.mk_fun,
            "_is_true": va.is_true, "_elems": va.set_elems,
            "_apply": va.apply_value, "_except": va.except_value,
            "_apply_at": va.apply_at, "_except_at": va.except_at,
            "_union": va.set_union, "_add": va.add_values,
            "_B_TRUE": va.TRUE, "_B_FALSE": va.FALSE,
        }
        for cname, cval in self.consts.items():
            ns["c_" + cname] = cval
        ns.update(names)
        src = "".join("%s = %s\n" % (name, value)
                      for value, name in self.hoisted.items()) + src
        exec(compile(src, "<spec:%s>" % self.name, "exec"), ns)
        return ns


def _bind(bound, var):
    """`bound` inside a binder of var (which may shadow the parameter)."""
    return {**bound, var: "b_" + var}


def _construct(e, go):
    """Source building the constructor e, with `go` giving the source of
    each operand."""
    if isinstance(e, sx.SetLit):
        return "_mk_set((%s))" % "".join(go(x) + ", " for x in e.elems)
    if isinstance(e, sx.TupleLit):
        return "('tup', (%s))" % "".join(go(x) + ", " for x in e.elems)
    items = "".join("(%r, %s), " % (f, go(x)) for f, x in e.fields)
    return "_mk_rec((%s))" % items


def eval_const(e, consts):
    """Value of an expression closed over `consts` (name -> value pairs)."""
    cg = _Codegen(consts)
    return cg.build("def val():\n    return %s\n" % cg.expr(e, {}))["val"]()


def _init_and_domain(spec):
    """The initial states and the Next domain's elements, both evaluated
    by one compiled function."""
    domain = spec.next_domain
    if domain is None:
        domain = sx.SetLit(())
    exprs = tuple(c.right for c in spec.init) + (domain,)
    values = eval_const(sx.TupleLit(exprs), spec.config)[1]
    domain = va.set_elems(values[-1])
    assignment = {}
    for c, val in zip(spec.init, values):
        if assignment.setdefault(c.left.id, val) != val:
            return set(), domain
    return {tuple(assignment[v] for v in spec.variables)}, domain


def _compile(spec, prop=None):
    """Everything one LTS build evaluates: (initial states, alphabet,
    successors, compiled property or None).  The successor generator and
    the property come from one generated module; the alphabet lists the
    (action name, argument) of each label index."""
    cg = _Codegen(spec.config, spec.variables, spec.name)
    src = ""
    if prop is not None:
        extra = (sx.free_idents(prop.body) - set(spec.variables)
                 - set(spec.constants))
        if extra:
            raise SpecError("property %s references variables outside %s: %s"
                            % (prop.name, spec.name, ", ".join(sorted(extra))))
        src = cg.predicate_fn(prop.body)
    src += cg.successors_fn(spec.actions)
    # after the source, so that errors in the spec's text come first
    initials, domain = _init_and_domain(spec)
    ns = cg.build(src, _dom=domain, _n=len(domain))
    alphabet = [(a.name, d) for a in spec.actions for d in domain]
    return initials, alphabet, ns["successors"], ns.get("prop")


# --------------------------------------------------------------------------
# LTS construction


def _enumerate(spec, prop, bound, cancel, stop_at_pi=False):
    """The spec's reachable state graph, built by `lts.explore` over the
    compiled successor generator.

    With a property, states that violate it go into the absorbing error
    state; pass None for plain state-graph generation.  Label indices
    refer to the canonical concrete-action alphabet.
    """
    initials, alphabet, successors, check = _compile(spec, prop)
    violates = (_violates(spec, prop, check) if prop is not None
                else lambda q: False)
    return explore(sorted(initials), successors, alphabet, violates,
                   bound or DEFAULT_BOUND, cancel, stop_at_pi)


def _violates(spec, prop, check):
    """violates(q) -> bool, from the compiled property `check`.  The
    answer depends only on the variables the property reads, so unless it
    reads them all, `check` runs once per distinct projection of q onto
    them, memoized for the one build that calls this."""
    used = sx.free_vars(spec, prop.body)
    read = [i for i, v in enumerate(spec.variables) if v in used]
    if len(read) == len(spec.variables):
        return lambda q: not check(q)
    key = itemgetter(*read) if read else (lambda q: ())
    memo = {}

    def violates(q):
        k = key(q)
        v = memo.get(k)
        if v is None:
            v = memo[k] = not check(q)
        return v

    return violates


def to_lts(spec, bound=None, cancel=None):
    """Reachable state graph of a spec as an LTS."""
    return _enumerate(spec, None, bound, cancel)


def err_lts(spec, prop, bound=None, cancel=None):
    """State graph with property-violating targets collapsed into pi."""
    return _enumerate(spec, prop, bound, cancel)


def err_reach(spec, prop, bound=None, cancel=None):
    """Monolithic check: is a property-violating state reachable?

    Explores only until the first violating state; returns (violated,
    state count, witness action trace ending in the violating step, or
    None).
    """
    l = _enumerate(spec, prop, bound, cancel, stop_at_pi=True)
    trace = pi_trace(l)
    return trace is not None, l.n_states, trace
