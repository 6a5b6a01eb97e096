"""Explicit-state semantics: evaluation and state-graph generation.

Every spec expression is evaluated by Python code that `_Codegen`
generates.  `eval_const` evaluates expressions closed over the constants
(CONFIG values, Init right-hand sides, the Next domain).  Each LTS build
(`to_lts`, `err_lts`, `err_reach`) compiles one generated module that
holds the spec's successor generator and, for a property, its predicate,
and builds its state graph with `lts.explore`, the breadth-first LTS
builder.  `unbuilt` compiles the module without building: it gives the
generator to `lts.compose` to search, and `to_lts` builds from it if
the search gives up.

Every build codes its states: a state is a tuple of small ids, one per
variable in the spec's variable order, each naming a value in that
variable's table.  A value is hashed when it is interned, so `explore`
hashes only short tuples of ints.  An action whose read set (the
variables its guards, right-hand sides and frame checks read) leaves
out some variable is evaluated once per distinct projection of the
reached states onto its read set, and its successors are cached under
that projection.  The invariant is memoized on the part of the state it
reads.

`err_reach` reduces by symmetry: under the permutations of each CONFIG
set of strings that nothing but the set names (`symmetric_sets`), it
explores one representative state per orbit, so its state count and its
bound are of representatives, and renames its witness back to concrete
steps.  `to_lts` and `err_lts` never reduce.

Set, record and tuple literals built from literals, constants and the
action parameter are evaluated once per build, when the module runs: a
constant one as a module-level value, one that reads the parameter as a
module-level list indexed by the element's position in the Next domain.
So are the elements of a binder's domain that names a constant set.
Only these are hoisted, since they cannot fail; every other operator
runs where the spec evaluates it.  The test suite cross-checks
the compiled code against an independent oracle.
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import getitem

from . import syntax as sx
from . import values as va
from .lts import Unbuilt, explore, pi_path, pi_trace
from .syntax import SpecError
from .values import EvalError

DEFAULT_BOUND = 10_000_000


def state_bound(bound):
    """The state bound a run keeps to: `DEFAULT_BOUND` for None.  A
    bound below 1 raises `ValueError`."""
    if bound is None:
        return DEFAULT_BOUND
    if bound < 1:
        raise ValueError("bound must be at least 1")
    return bound


# --------------------------------------------------------------------------
# Compiled evaluation
#
# A spec's actions become one generator `successors(c)` yielding (label
# index, successor) pairs; a property becomes `prop(q)` over value states
# and `violates(c)`, and a closed expression `val()`.  In boolean
# positions (guards, property bodies, the operands of the logical
# operators and quantifier bodies) the code computes Python bools, and
# `_is_true` checks any other expression found there.  Everywhere else it
# computes tagged values: scalar literals and tuples are written as
# tagged tuples, a boolean operator's result is wrapped as
# `_B_TRUE`/`_B_FALSE`, and the rest goes through the helpers in
# `values`.
#
# Read sets and coded states.  The read set of an action is every
# variable its code reads as q[i] (the free variables of its guards and
# right-hand sides), any variable it updates twice and any it both
# updates and frames.  An action whose read set is not all the variables
# is cached.  States are coded: variable i has a table `_t<i>` (value ->
# id; a value not yet in it gets the next id) and its list `_v<i>` (id ->
# value).  The code decodes the state c into the value state q,
# `(_v0[c[0]], ...)`, evaluates on q, and writes each updated value's id
# as w<i>; a variable the action leaves unchanged keeps its id c[i].
# `_c<k>` maps the ids cached action k reads to the list of (label,
# written ids) over the Next domain, and c is decoded only on a miss.  A
# miss runs the action's code in the usual order, yielding as it goes,
# and stores the list only once the loop completes, so EvalErrors are
# raised where and in the order they always were, and a search that
# stops early leaves no partial entry.  The tables and caches live in the
# build's module and go with it.
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
# Application and EXCEPT at a bound name pass its position along: j for
# the action parameter `_d`, j_x for a binder's b_x (`\A`, `\E` and
# function literals enumerate their domain when their body uses j_x):
# `_apply_at(f, _d, j)` and `_except_at(f, _d, j, v)`.  A function over
# the bound name's domain has its pair at that position of its sorted
# graph, so the helper finds it with one comparison; for any other
# function, a tuple or a key outside the domain, the comparison fails and
# the helper scans as `_apply`/`_except` do, with the same results and
# errors.  Where the function is a plain state read q[i], application
# makes the helper's test inline, `(q[i][1][j][1] if q[i][0] == 'fun' and
# j < len(q[i][1]) and q[i][1][j][0] == b else _apply(q[i], b))`, and
# calls the scan only on a miss; the test cannot raise.  EXCEPT keeps
# calling `_except_at`: inlining it too made no measurable difference.
#
# Quantifiers hoist what does not depend on their bound name.  The body
# of `\A x \in S : B` is split into disjuncts (`\/` gives its operands,
# `~(P /\ Q)` gives ~P and ~Q, `P => Q` gives ~P and Q, each split in
# turn), and the leading run of them that does not mention x moves out
# of the loop: `((s<k> := _elems(S)) == () or H1 or ... or all(rest for
# b_x in s<k>))`.  `\E` is the dual, over conjuncts, `~(P \/ Q)` giving ~P
# and ~Q, with `!= ()`, `and` and `any`.  The unhoisted loop evaluates S,
# nothing more if S is empty, and otherwise H1, ... in order for the
# first element, each giving the same bool for every element; so the
# hoisted code evaluates the same subexpressions in the same order,
# raises the same EvalError and reads the same variables.  Only a leading
# run may move, since a later part runs only after the parts before it
# fail for some element.  Each hoisting quantifier of a module binds its
# own s<k>, as nested binders may share a name.  Where a binder's domain
# (`\A`, `\E` or a function literal, hoisting or not) names a constant
# whose value is a set, its elements are known at compile time: they are
# bound once per module, to a module-level `_h<k>` as hoisted
# constructors are, and every such binder reads that name.  A hoisting
# quantifier also decides its emptiness test then, so an empty domain
# compiles to `True` (`\A`) or `False` (`\E`) and a non-empty one to
# `(H1 or ... or all(rest for b_x in _h<k>))`.  A quantifier inside a
# comprehension's domain does not hoist, since Python allows no
# assignment expression there.

_BOOLEAN = (sx.Eq, sx.In, sx.Not, sx.And, sx.Or, sx.Implies, sx.Forall,
            sx.Exists)
_CONSTRUCTORS = (sx.SetLit, sx.TupleLit, sx.RecordLit)
_LITERALS = (sx.IntLit, sx.StrLit, sx.BoolLit)
# the Python name of the action parameter; `j` is its position in `_dom`
_PARAM = "_d"


class _Table(dict):
    """The ids of one variable's values within one build: a value not yet
    in the table gets the next id, and `vals[id]` is the value."""

    __slots__ = ("vals",)

    def __init__(self):
        super().__init__()
        self.vals = []

    def __missing__(self, value):
        i = self[value] = len(self.vals)
        self.vals.append(value)
        return i


class _Codegen:
    def __init__(self, consts, variables=(), name="const"):
        self.name = name
        self.variables = variables
        self.var_index = {v: i for i, v in enumerate(variables)}
        self.consts = dict(consts)
        self.hoisted = {}  # source of a hoisted value -> its name
        self.reads = set()  # indices of the variables read as q[i]
        self.positions = set()  # position names used, such as j_x
        self.iterable = False  # whether compiling a comprehension's domain
        self.domains = 0  # hoisting quantifiers so far, naming their s<k>

    def expr(self, e, bound):
        """Python expression for the tagged value of e.  `bound` maps the
        names bound around e to their Python (value, position) names."""
        go = lambda x: self.expr(x, bound)
        if isinstance(e, sx.Name):
            if e.id in bound:
                return bound[e.id][0]
            if e.id in self.var_index:
                self.reads.add(self.var_index[e.id])
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
            body, loop = self._binder(e.var, e.body, bound, self.expr)
            return "_mk_fun([(b_%s, %s) %s])" % (
                e.var, body, loop % self._elems(e.domain, bound, True))
        if isinstance(e, sx.Apply):
            at = self._at(e.arg, bound)
            if at and self._is_read(e.fn, bound):
                return _INLINE_APPLY % {"f": go(e.fn), "b": at[0],
                                        "j": at[1]}
            if at:
                return "_apply_at(%s, %s, %s)" % (go(e.fn), *at)
            return "_apply(%s, %s)" % (go(e.fn), go(e.arg))
        if isinstance(e, sx.Except):
            at = self._at(e.key, bound)
            if at:
                return "_except_at(%s, %s, %s, %s)" % (go(e.fn), *at,
                                                       go(e.value))
            return "_except(%s, %s, %s)" % (go(e.fn), go(e.key), go(e.value))
        if isinstance(e, sx.Union):
            return "_union(%s, %s)" % (go(e.left), go(e.right))
        if isinstance(e, sx.Add):
            return "_add(%s, %s)" % (go(e.left), go(e.right))
        raise EvalError("cannot compile %r" % (e,))

    def _at(self, e, bound):
        """(value, position) names of the bound name e, or None for any
        other expression."""
        if not (isinstance(e, sx.Name) and e.id in bound):
            return None
        self.positions.add(bound[e.id][1])
        return bound[e.id]

    def _is_read(self, e, bound):
        """Whether e is a plain read of a state variable, q[i]."""
        return (isinstance(e, sx.Name) and e.id not in bound
                and e.id in self.var_index)

    def _binder(self, var, body, bound, gen):
        """For a binder of var (a quantifier or function literal): the
        source `gen` makes of `body`, and its `for` clause, with a %s for
        the source of the domain's elements: it binds b_<var> to each
        element and, when the body applies or updates a function at the
        bound name, j_<var> to the element's position."""
        outer = self.positions
        self.positions = set()
        body = gen(body, _bind(bound, var))
        position = "j_" + var
        positional = position in self.positions
        self.positions = outer | (self.positions - {position})
        if positional:
            return body, "for %s, b_%s in enumerate(%%s)" % (position, var)
        return body, "for b_%s in %%s" % var

    def _elems(self, domain, bound, iterable):
        """Source of the elements of a binder's domain: for a constant
        set, the module-level name they are bound to.  `iterable` when the
        source goes into a comprehension's `for` clause, where Python
        allows no assignment expression, so no quantifier in it hoists."""
        if self._const_set(domain, bound) is not None:
            return self.hoisted.setdefault("_elems(c_%s)" % domain.id,
                                           "_h%d" % len(self.hoisted))
        outer = self.iterable
        self.iterable = outer or iterable
        src = "_elems(%s)" % self.expr(domain, bound)
        self.iterable = outer
        return src

    def _leaves(self, e, bound):
        """For a tree of constructors, "const" when its leaves are literals
        and constants, "param" when the action parameter is also among
        them, and None for any other expression."""
        if isinstance(e, _LITERALS):
            return "const"
        if isinstance(e, sx.Name):
            if e.id in bound:
                return "param" if bound[e.id][0] == _PARAM else None
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
            return self._quantifier(e, bound)
        return "_is_true(%s)" % self.expr(e, bound)

    def _quantifier(self, e, bound):
        """\\A as `all` or \\E as `any` over the domain's elements.  The
        leading parts of the body (`_split`) that do not mention the bound
        name are hoisted before the loop, after the domain's elements are
        bound to s<k> and tested for emptiness; a constant set's elements
        are read from the module (`_elems`), and its emptiness decided
        here."""
        forall = isinstance(e, sx.Forall)
        quant = "all" if forall else "any"
        parts = _split(e.body, forall)
        lead = 0
        while (not self.iterable and lead < len(parts)
               and e.var not in sx.free_idents(parts[lead])):
            lead += 1
        if not lead:
            body, loop = self._binder(e.var, e.body, bound, self.cond)
            return "%s(%s %s)" % (
                quant, body, loop % self._elems(e.domain, bound, True))
        const = self._const_set(e.domain, bound)
        if const == ():
            return repr(forall)
        out = [self.cond(x, bound) for x in parts[:lead]]
        if const is None:
            elems = "s%d" % self.domains
            self.domains += 1
        else:
            elems = self._elems(e.domain, bound, False)
        rest = parts[lead:]
        if rest:
            body = rest[0] if len(rest) == 1 else (
                sx.Or if forall else sx.And)(tuple(rest))
            body, loop = self._binder(e.var, body, bound, self.cond)
            out.append("%s(%s %s)" % (quant, body, loop % elems))
        empty, op = ("==", " or ") if forall else ("!=", " and ")
        if const is not None:
            return "(%s)" % op.join(out)
        return "((%s := %s) %s ()%s%s)" % (
            elems, self._elems(e.domain, bound, False), empty, op,
            op.join(out))

    def _const_set(self, domain, bound):
        """The elements of a domain that names a constant whose value is
        a set; None for any other domain."""
        if not (isinstance(domain, sx.Name) and domain.id not in bound
                and domain.id not in self.var_index):
            return None
        value = self.consts.get(domain.id)
        if value is None or value[0] != "set":
            return None
        return value[1]

    def _decoded(self):
        """Source of the value state of the state c."""
        return "(%s)" % "".join("_v%d[c[%d]], " % (i, i)
                                for i in range(len(self.variables)))

    def _action(self, action):
        """The guarded code of one action over the value state q, as
        (depth, line) pairs ending, inside the loop over `_dom`, with the
        value of each updated variable v in n_v; with the depth of that
        end, the action's read set and the (index, name) of each variable
        it updates."""
        p = action.param
        bound = {p: (_PARAM, "j")}
        updates = {}
        framed = set()
        guards = []
        for c, kind in zip(action.conjuncts, action.kinds):
            if kind == "guard":
                guards.append(c)
            elif kind == "update":
                updates.setdefault(c.left.id, []).append(c.right)
            else:
                framed.update(c.names)
        self.reads = set()
        lead = 0
        while lead < len(guards) and p not in sx.free_idents(guards[lead]):
            lead += 1
        out = []
        depth = 0
        if lead:
            out.append((0, "if _n and %s:" % " and ".join(
                self.cond(g, bound) for g in guards[:lead])))
            depth = 1
        out.append((depth, "for j, %s in enumerate(_dom):" % _PARAM))
        depth += 1
        for g in guards[lead:]:
            out.append((depth, "if not %s: continue" % self.cond(g, bound)))
        index = self.var_index
        for v, rhss in updates.items():
            out.append((depth, "n_%s = %s" % (v, self.expr(rhss[0], bound))))
            for extra in rhss[1:]:
                out.append((depth, "if n_%s != %s: continue"
                            % (v, self.expr(extra, bound))))
            if v in framed:
                out.append((depth, "if n_%s != q[%d]: continue"
                            % (v, index[v])))
        read = self.reads | {index[v] for v, rhss in updates.items()
                             if len(rhss) > 1 or v in framed}
        return out, depth, read, [(index[v], v) for v in updates]

    def successors_fn(self, actions):
        """Source of `def successors(c)` and of the caches it fills.  For
        each action in order, and each element `_d` of the Next domain
        `_dom` in order, at position j, it yields (action index * `_n` +
        j, successor).  Guards that come before the first guard reading
        the parameter run once per action, and only when the domain is
        non-empty: they give the same result for every element.  The
        value state q is decoded on entry when some action reads every
        variable, and otherwise on the first cache miss."""
        n = len(self.variables)
        codes = [self._action(a) for a in actions]
        eager = any(len(read) == n for _, _, read, _ in codes)
        caches = []
        lines = ["def successors(c):",
                 "    q = " + (self._decoded() if eager else "None")]
        for k, (steps, depth, read, written) in enumerate(codes):
            new = {i: "w%d" % i for i, _ in written}
            steps = steps + [(depth, "w%d = _t%d[n_%s]" % (i, i, v))
                             for i, v in written]
            succ = "(%s)" % "".join(new.get(i, "c[%d]" % i) + ", "
                                    for i in range(n))
            if len(read) == n:
                lines += _indented(steps, 1)
                lines.append(_PAD * (depth + 1)
                             + "yield %d * _n + j, %s" % (k, succ))
                continue
            caches.append("_c%d = {}\n" % k)
            ids = "".join(w + ", " for w in new.values())
            lines += ["    k = %s" % _key(read),
                      "    h = _c%d.get(k)" % k,
                      "    if h is None:"]
            if not eager:
                lines.append("        if q is None: q = decode(c)")
            lines.append("        h = []")
            lines += _indented(steps, 2)
            pad = _PAD * (depth + 2)
            lines += [pad + "lab = %d * _n + j" % k,
                      pad + "h.append((lab, %s))" % ids,
                      pad + "yield lab, " + succ,
                      "        _c%d[k] = h" % k,
                      "    else:",
                      "        for lab, %sin h:" % ids,
                      "            yield lab, " + succ]
        if not actions:
            lines.append("    yield from ()")
        return "".join(caches) + "\n".join(lines) + "\n"

    def predicate_fn(self, body):
        """Source of `prop(q)`; leaves the indices it reads in `reads`."""
        self.reads = set()
        return "def prop(q):\n    return %s\n" % self.cond(body, {})

    def violates_fn(self, read):
        """Source of `violates(c)` for a property reading the indices
        `read`, memoized on them unless they are all the variables."""
        if len(read) == len(self.variables):
            return ("def violates(c):\n    return not prop(%s)\n"
                    % self._decoded())
        return ("_m = {}\n"
                "def violates(c):\n"
                "    k = %s\n"
                "    v = _m.get(k)\n"
                "    if v is None:\n"
                "        v = _m[k] = not prop(%s)\n"
                "    return v\n" % (_key(read), self._decoded()))

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


_PAD = "    "
# application of the state read f at the bound name b, j being b's
# position: the pair at j when it holds b, else the scan
_INLINE_APPLY = ("(%(f)s[1][%(j)s][1] if %(f)s[0] == 'fun' and %(j)s < "
                 "len(%(f)s[1]) and %(f)s[1][%(j)s][0] == %(b)s "
                 "else _apply(%(f)s, %(b)s))")


def _indented(steps, base):
    return [_PAD * (base + depth) + line for depth, line in steps]


def _key(read):
    """Source of the cache key of the coded state c on the indices read:
    the one id itself, or the tuple of the ids."""
    read = sorted(read)
    if len(read) == 1:
        return "c[%d]" % read[0]
    return "(%s)" % "".join("c[%d], " % i for i in read)


def _split(e, forall):
    """The disjuncts of e, for the body of \\A (`forall`), or its
    conjuncts, for \\E: `\\/` (`/\\`) gives its operands, `~(P /\\ Q)`
    (`~(P \\/ Q)`) gives ~P and ~Q, and under \\A `P => Q` gives ~P and
    Q, each split in turn.  Joined in order by `or` (`and`), the parts
    evaluate what e evaluates, in the same order, to the same bool."""
    join, dual = (sx.Or, sx.And) if forall else (sx.And, sx.Or)
    if isinstance(e, join):
        return [x for o in e.operands for x in _split(o, forall)]
    if isinstance(e, sx.Not) and isinstance(e.operand, dual):
        return [x for o in e.operand.operands
                for x in _split(sx.Not(o), forall)]
    if forall and isinstance(e, sx.Implies):
        return _split(sx.Not(e.left), forall) + _split(e.right, forall)
    return [e]


def _bind(bound, var):
    """`bound` inside a binder of var (which may shadow the parameter)."""
    return {**bound, var: ("b_" + var, "j_" + var)}


def _construct(e, go):
    """Source building the constructor e, with `go` giving the source of
    each operand."""
    if isinstance(e, sx.SetLit):
        return "_mk_set((%s))" % "".join(go(x) + ", " for x in e.elems)
    if isinstance(e, sx.TupleLit):
        return "('tup', (%s))" % "".join(go(x) + ", " for x in e.elems)
    items = "".join("(%r, %s), " % (f, go(x)) for f, x in e.fields)
    return "_mk_rec((%s))" % items


def _coding(tables):
    """The names a build's module codes states with: `decode(c)`, from a
    coded state to its value state, and each variable's table `_t<i>`
    and its list `_v<i>`."""
    lists = [t.vals for t in tables]
    names = {"decode": lambda c: tuple(map(getitem, lists, c))}
    for i, t in enumerate(tables):
        names["_t%d" % i] = t
        names["_v%d" % i] = lists[i]
    return names


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
    """Everything one LTS build evaluates: (coded initial states, in the
    order of their values, alphabet, namespace of the generated module).
    The namespace holds `successors(c)` and `decode(c)`, the caches
    `_c<k>`, the tables `_t<i>` and their lists `_v<i>` and, with a
    property, `prop(q)` and `violates(c)`.  The alphabet lists the
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
        read = cg.reads
    src += cg.successors_fn(spec.actions)
    if prop is not None:
        src += cg.violates_fn(read)
    # after the source, so that errors in the spec's text come first
    initials, domain = _init_and_domain(spec)
    tables = [_Table() for _ in spec.variables]
    ns = cg.build(src, _dom=domain, _n=len(domain), **_coding(tables))
    alphabet = [(a.name, d) for a in spec.actions for d in domain]
    return ([tuple(map(getitem, tables, q)) for q in sorted(initials)],
            alphabet, ns)


# --------------------------------------------------------------------------
# LTS construction


def _enumerate(spec, prop, bound, cancel, stop_at_pi=False):
    """The spec's reachable state graph, built by `lts.explore` over the
    compiled successor generator.

    With a property, states that violate it go into the absorbing error
    state; pass None for plain state-graph generation.  Label indices
    refer to the canonical concrete-action alphabet.
    """
    initials, alphabet, ns = _compile(spec, prop)
    violates = ns["violates"] if prop is not None else lambda c: False
    try:
        return explore(initials, ns["successors"], alphabet, violates,
                       state_bound(bound), cancel, stop_at_pi)
    finally:
        # the module's functions hold it as their globals, so without
        # this its tables and caches would wait for a full collection
        ns.clear()


def to_lts(spec, bound=None, cancel=None):
    """Reachable state graph of a spec as an LTS.  `spec` may instead be
    an `lts.Unbuilt` system from `unbuilt`: the build then reuses its
    compiled module, whose caches hold the successors a search of it
    already computed."""
    if isinstance(spec, Unbuilt):
        initials = [spec.keys[i] for i in spec.initials]
        return explore(initials, spec.successors, spec.alphabet,
                       lambda c: False, state_bound(bound), cancel)
    return _enumerate(spec, None, bound, cancel)


@contextmanager
def unbuilt(spec):
    """The spec's state graph as an `lts.Unbuilt` system over its compiled
    successor generator, for `lts.compose` to search without building
    it; the module is released on exit."""
    initials, alphabet, ns = _compile(spec)
    try:
        yield Unbuilt(initials, ns["successors"], alphabet)
    finally:
        ns.clear()


def err_lts(spec, prop, bound=None, cancel=None):
    """State graph with property-violating targets collapsed into pi."""
    return _enumerate(spec, prop, bound, cancel)


def err_reach(spec, prop, bound=None, cancel=None):
    """Monolithic check: is a property-violating state reachable?

    Explores only until the first violating state; returns (violated,
    state count, witness action trace ending in the violating step, or
    None).  Under the permutations of `symmetric_sets`, it explores one
    state per orbit, and the count and `bound` are of those.
    """
    sets = symmetric_sets(spec, prop)
    if sets:
        return _reduced_reach(spec, prop, sets, state_bound(bound), cancel)
    l = _enumerate(spec, prop, bound, cancel, stop_at_pi=True)
    trace = pi_trace(l)
    return trace is not None, l.n_states, trace


# --------------------------------------------------------------------------
# Symmetry
#
# A CONFIG set of strings is a scalarset (Ip & Dill, FMSD 1996) when no
# string of it occurs anywhere else: not as a literal of Init, an
# action, the Next domain or the checked property, and not in another
# constant's value.  The spec then reaches its elements only through the
# set, and the language has no CHOOSE, no order on strings and no
# arithmetic on them, so renaming the elements by any permutation maps
# states, edges (with their labels renamed) and violating states onto
# states, edges and violating states.  `err_reach` searches one state
# per orbit under these permutations; `to_lts` and `err_lts` never
# reduce, since composition synchronizes on the labels.
#
# The representative sorts the elements by their marked views, each
# variable's value with the element marked and every other element
# blanked, and renames the k-th element in that order to the set's k-th
# element.  A permutation of a state permutes its elements' views along
# with them, so the states of an orbit get one representative, except
# where two elements have the same views and swapping them changes the
# state; then an orbit may get several, which only reduces less.  The
# views are cached per (variable, id) and the renamed ids per (variable,
# id, order) in the build's tables.
#
# Evaluation errors are the one thing a permutation need not preserve: a
# quantifier stops at the first element that decides it, in the order of
# the strings, so a spec that raises EvalError in one state of an orbit
# may evaluate in another.

_MARK = ("sym", 1)
_BLANK = ("sym", 0)


def symmetric_sets(spec, prop):
    """The elements of each CONFIG set of two or more strings none of
    which occurs in a literal of Init, an action, the Next domain or
    `prop`, or in another constant's value."""
    exprs = list(spec.init) + [c for a in spec.actions for c in a.conjuncts]
    exprs += [e for e in (spec.next_domain, prop.body) if e is not None]
    text = {("str", x) for e in exprs for x in sx.string_literals(e)}
    out = []
    for name, value in spec.config:
        elems = value[1] if value[0] == "set" else ()
        if len(elems) < 2 or any(e[0] != "str" for e in elems):
            continue
        # a value holds one of the strings iff marking them changes it
        marked = dict.fromkeys(elems, _MARK)
        if text.isdisjoint(elems) and all(
                _rename(v, marked) == v for other, v in spec.config
                if other != name):
            out.append(elems)
    return out


def _rename(v, m):
    """v with each string that is a key of the dict m replaced by its
    image, in the canonical form of values; where m is not one-to-one, a
    function's graph may hold several pairs with one key."""
    tag, payload = v
    if tag == "str":
        return m.get(v, v)
    if tag == "set":
        return ("set", tuple(sorted({_rename(x, m) for x in payload})))
    if tag == "fun":
        return ("fun", tuple(sorted([(_rename(k, m), _rename(x, m))
                                     for k, x in payload])))
    if tag == "rec":
        return ("rec", tuple([(f, _rename(x, m)) for f, x in payload]))
    if tag == "tup":
        return ("tup", tuple([_rename(x, m) for x in payload]))
    return v


class _Cache(dict):
    """A dict that computes a missing entry as `make(key)` and keeps it."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _symmetry(sets, tables):
    """(order, canon) for the coded states of one build, whose variables
    have the tables `tables`, under the permutations of each of `sets`.
    `order(c)` is the tuple of the elements' indices (into the sets'
    elements, set after set) sorted by their marked views in c, within
    each set; `canon(c)` renames the element at position k of `order(c)`
    to the k-th element."""
    elems = [e for s in sets for e in s]
    n = len(elems)
    blocks = [b for b, s in enumerate(sets) for _ in s]
    marks = [{x: _MARK if x == e else _BLANK for x in elems} for e in elems]
    seen = _Table()  # view -> id: any fixed one-to-one key sorts alike

    def views(t):
        return _Cache(lambda i: tuple([seen[_rename(t.vals[i], m)]
                                       for m in marks]))

    def renamed(p):
        m = {elems[i]: elems[k] for k, i in enumerate(p)}
        return [_Cache(lambda i, t=t: t[_rename(t.vals[i], m)])
                for t in tables]

    marked = [views(t) for t in tables]
    renamings = _Cache(renamed)
    renamings[tuple(range(n))] = None

    def order(c):
        keys = list(zip(blocks, *map(getitem, marked, c)))
        return tuple(sorted(range(n), key=keys.__getitem__))

    def canon(c):
        r = renamings[order(c)]
        return c if r is None else tuple(map(getitem, r, c))

    return order, canon


def _reduced_reach(spec, prop, sets, bound, cancel):
    """`err_reach` over one representative per orbit.  The witness is
    the representatives' path with its elements renamed back: the
    renaming from representative to concrete state starts as the inverse
    of the initial state's, and each step composes it with the inverse
    of the renaming of the representative's successor."""
    initials, alphabet, ns = _compile(spec, prop)
    try:
        order, canon = _symmetry(sets, [ns["_t%d" % i]
                                        for i in range(len(spec.variables))])
        successors = ns["successors"]
        expanded = []  # `explore` expands its states in index order

        def reduced(c):
            expanded.append(c)
            for lab, t in successors(c):
                yield lab, canon(t)

        l = explore([canon(c) for c in initials], reduced, alphabet,
                    ns["violates"], bound, cancel, stop_at_pi=True)
        path = pi_path(l)
        if path is None:
            return False, l.n_states, None
        elems = [e for s in sets for e in s]
        trace = []
        if path:
            start = expanded[path[0][0]]
            sigma = order(next(c for c in initials if canon(c) == start))
        for step, (s, lab) in enumerate(path):
            name, d = alphabet[lab]
            back = {elems[k]: elems[i] for k, i in enumerate(sigma)}
            trace.append((name, _rename(d, back)))
            if step + 1 < len(path):
                t = next(t for x, t in successors(expanded[s]) if x == lab)
                sigma = tuple(sigma[i] for i in order(t))
        return True, l.n_states, tuple(trace)
    finally:
        ns.clear()
