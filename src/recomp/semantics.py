"""Explicit-state semantics: evaluation and state-graph generation.

States are tuples of values aligned with the spec's variable order.
Every spec expression is evaluated by Python code that `_Codegen`
generates: `eval_const` for expressions closed over the constants
(CONFIG values, Init right-hand sides, the Next domain), `_compile_spec`
for the action steppers and `compile_predicate` for properties.
`to_lts`, `err_lts` and `err_reach` build their state graphs with
`lts.explore`, the breadth-first LTS builder, fed by those steppers.
The test suite cross-checks the compiled code against an independent
oracle.
"""

from __future__ import annotations

from . import syntax as sx
from . import values as va
from .lts import explore, pi_trace
from .syntax import SpecError
from .values import EvalError

DEFAULT_BOUND = 10_000_000


# --------------------------------------------------------------------------
# Compiled evaluation
#
# Each action becomes `def step(q, d)` returning the successor tuple or
# None; each property becomes `def prop(q)` returning a Python bool; a
# closed expression becomes `def val()` returning its value.  The code
# writes scalar literals and tuples as tagged tuples and does everything
# else through the helpers in `values`.


class _Codegen:
    def __init__(self, consts, variables=(), name="const"):
        self.name = name
        self.variables = variables
        self.var_index = {v: i for i, v in enumerate(variables)}
        self.consts = dict(consts)

    def expr(self, e, bound):
        go = lambda x: self.expr(x, bound)
        if isinstance(e, sx.Name):
            if e.id in bound:
                return "b_" + e.id
            if e.id in self.var_index:
                return "q[%d]" % self.var_index[e.id]
            if e.id in self.consts:
                return "c_" + e.id
            raise EvalError("unbound identifier %r" % e.id)
        if isinstance(e, sx.BoolLit):
            return "_B_TRUE" if e.value else "_B_FALSE"
        if isinstance(e, (sx.IntLit, sx.StrLit)):
            tag = "int" if isinstance(e, sx.IntLit) else "str"
            return repr((tag, e.value))
        if isinstance(e, sx.SetLit):
            return "_mk_set((%s))" % "".join(go(x) + ", " for x in e.elems)
        if isinstance(e, sx.TupleLit):
            return "('tup', (%s))" % "".join(go(x) + ", " for x in e.elems)
        if isinstance(e, sx.RecordLit):
            items = "".join("(%r, %s), " % (f, go(x)) for f, x in e.fields)
            return "_mk_rec((%s))" % items
        if isinstance(e, sx.FuncLit):
            body = self.expr(e.body, bound | {e.var})
            return ("_mk_fun([(b_%s, %s) for b_%s in _elems(%s)])"
                    % (e.var, body, e.var, go(e.domain)))
        if isinstance(e, sx.Apply):
            return "_apply(%s, %s)" % (go(e.fn), go(e.arg))
        if isinstance(e, sx.Except):
            return "_except(%s, %s, %s)" % (go(e.fn), go(e.key), go(e.value))
        if isinstance(e, sx.Union):
            return "_union(%s, %s)" % (go(e.left), go(e.right))
        if isinstance(e, sx.Add):
            return "_add(%s, %s)" % (go(e.left), go(e.right))
        if isinstance(e, sx.In):
            return "_member(%s, %s)" % (go(e.elem), go(e.set))
        if isinstance(e, sx.Eq):
            return "_mk_bool(%s == %s)" % (go(e.left), go(e.right))
        if isinstance(e, sx.Not):
            return "_mk_bool(not _is_true(%s))" % go(e.operand)
        if isinstance(e, sx.And):
            return "_mk_bool(%s)" % " and ".join(
                "_is_true(%s)" % go(x) for x in e.operands)
        if isinstance(e, sx.Or):
            return "_mk_bool(%s)" % " or ".join(
                "_is_true(%s)" % go(x) for x in e.operands)
        if isinstance(e, sx.Implies):
            return ("_mk_bool((not _is_true(%s)) or _is_true(%s))"
                    % (go(e.left), go(e.right)))
        if isinstance(e, (sx.Forall, sx.Exists)):
            quant = "all" if isinstance(e, sx.Forall) else "any"
            body = self.expr(e.body, bound | {e.var})
            return ("_mk_bool(%s(_is_true(%s) for b_%s in _elems(%s)))"
                    % (quant, body, e.var, go(e.domain)))
        raise EvalError("cannot compile %r" % (e,))

    def action_fn(self, action):
        lines = ["def step(q, b_%s):" % action.param]
        bound = {action.param}
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
        for g in guards:
            lines.append("    if not _is_true(%s): return None"
                         % self.expr(g, bound))
        for v, rhss in updates.items():
            lines.append("    n_%s = %s" % (v, self.expr(rhss[0], bound)))
            for extra in rhss[1:]:
                lines.append("    if n_%s != %s: return None"
                             % (v, self.expr(extra, bound)))
            if v in framed:
                lines.append("    if n_%s != q[%d]: return None"
                             % (v, self.var_index[v]))
        parts = []
        for v in self.variables:
            parts.append("n_%s" % v if v in updates
                         else "q[%d]" % self.var_index[v])
        lines.append("    return (%s)" % "".join(p + ", " for p in parts))
        return self._build("\n".join(lines), "step")

    def predicate_fn(self, body):
        src = "def prop(q):\n    return _is_true(%s)" % self.expr(body, set())
        return self._build(src, "prop")

    def value_fn(self, e):
        return self._build("def val():\n    return %s" % self.expr(e, set()),
                           "val")

    def _build(self, src, name):
        ns = {
            "_mk_bool": va.mk_bool, "_mk_set": va.mk_set,
            "_mk_rec": va.mk_rec, "_mk_fun": va.mk_fun,
            "_is_true": va.is_true, "_elems": va.set_elems,
            "_apply": va.apply_value, "_except": va.except_value,
            "_union": va.set_union, "_add": va.add_values,
            "_member": va.set_member,
            "_B_TRUE": va.TRUE, "_B_FALSE": va.FALSE,
        }
        for cname, cval in self.consts.items():
            ns["c_" + cname] = cval
        exec(compile(src, "<spec:%s>" % self.name, "exec"), ns)
        return ns[name]


def _compile_spec(spec):
    cg = _Codegen(spec.config, spec.variables, spec.name)
    return [(a.name, cg.action_fn(a)) for a in spec.actions]


def compile_predicate(spec, body):
    return _Codegen(spec.config, spec.variables, spec.name).predicate_fn(body)


def eval_const(e, consts):
    """Value of an expression closed over `consts` (name -> value pairs)."""
    return _Codegen(consts).value_fn(e)()


def init_states(spec):
    """The (at most one, by the `v = e` Init discipline) initial states."""
    return _init_and_domain(spec)[0]


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


# --------------------------------------------------------------------------
# LTS construction


def _enumerate(spec, violates, bound, cancel, stop_at_pi=False):
    """The spec's reachable state graph, built by `lts.explore` over the
    compiled steppers.

    violates(q) -> bool sends states into the absorbing error state;
    pass None for plain state-graph generation.  Label indices refer to
    the canonical concrete-action alphabet.
    """
    steppers = _compile_spec(spec)
    initials, domain = _init_and_domain(spec)
    alphabet = []
    moves = []  # (label index, stepper, argument)
    for name, step in steppers:
        for d in domain:
            moves.append((len(alphabet), step, d))
            alphabet.append((name, d))

    def successors(q):
        for i, step, d in moves:
            q2 = step(q, d)
            if q2 is not None:
                yield i, q2

    return explore(sorted(initials), successors, alphabet,
                   violates or (lambda q: False), bound or DEFAULT_BOUND,
                   cancel, stop_at_pi)


def _violates(spec, prop):
    extra = (sx.free_idents(prop.body) - set(spec.variables)
             - set(spec.constants))
    if extra:
        raise SpecError("property %s references variables outside %s: %s"
                        % (prop.name, spec.name, ", ".join(sorted(extra))))
    check = compile_predicate(spec, prop.body)
    return lambda q: not check(q)


def to_lts(spec, bound=None, cancel=None):
    """Reachable state graph of a spec as an LTS."""
    return _enumerate(spec, None, bound, cancel)


def err_lts(spec, prop, bound=None, cancel=None):
    """State graph with property-violating targets collapsed into pi."""
    return _enumerate(spec, _violates(spec, prop), bound, cancel)


def err_reach(spec, prop, bound=None, cancel=None):
    """Monolithic check: is a property-violating state reachable?

    Explores only until the first violating state; returns (violated,
    state count, witness action trace ending in the violating step, or
    None).
    """
    l = _enumerate(spec, _violates(spec, prop), bound, cancel,
                   stop_at_pi=True)
    trace = pi_trace(l)
    return trace is not None, l.n_states, trace
