"""Expression evaluation: the compiled evaluator (`eval_const`, and the
successor generator and property predicate of `_compile`) checked
against the independent oracle in tests/oracle.py."""

import random
from collections import Counter

import pytest

import oracle as oc
from recomp import parse
from recomp import syntax as sx
from recomp import values as va
from recomp.corpus import consensus, lockserv, twophase
from recomp.semantics import _Codegen, _compile, err_reach, eval_const, to_lts
from recomp.values import EvalError
from spec_helpers import compiled_steps, init_states, walk


def test_set_values_are_canonical():
    a = va.mk_set([("int", 2), ("int", 1), ("int", 2)])
    b = va.mk_set([("int", 1), ("int", 2)])
    assert a == b


def test_function_apply_and_except():
    f = va.mk_fun([(("str", "a"), ("int", 1)),
                   (("str", "b"), ("int", 2))])
    assert va.apply_value(f, ("str", "b")) == ("int", 2)
    g = va.except_value(f, ("str", "a"), ("int", 9))
    assert va.apply_value(g, ("str", "a")) == ("int", 9)
    assert va.apply_value(g, ("str", "b")) == ("int", 2)
    with pytest.raises(EvalError):
        va.apply_value(f, ("str", "zz"))
    pairs = [(("int", k), ("str", "v%d" % k)) for k in (5, 3, 1, 4, 2)]
    f = va.mk_fun(pairs)
    for k in (1, 3, 5):  # the first, a middle and the last key
        updated = [(key, ("int", 0) if key == ("int", k) else val)
                   for key, val in pairs]
        assert va.except_value(f, ("int", k), ("int", 0)) == \
            va.mk_fun(updated)
    with pytest.raises(EvalError):
        va.except_value(f, ("int", 6), ("int", 0))
    with pytest.raises(EvalError):
        va.except_value(("tup", (("int", 1),)), ("int", 1), ("int", 0))


def test_positional_helpers_read_the_hinted_pair_or_scan():
    pairs = [(("int", k), ("str", "v%d" % k)) for k in (1, 2, 3)]
    f = va.mk_fun(pairs)
    for j in range(5):  # the right position, wrong ones and past the end
        for k, v in pairs:
            assert va.apply_at(f, k, j) == v
            assert va.except_at(f, k, j, ("int", 0)) == \
                va.except_value(f, k, ("int", 0))
    t = ("tup", (("str", "p"), ("str", "q")))
    assert va.apply_at(t, ("int", 2), 0) == ("str", "q")
    for j in (0, 1, 3):  # a key outside the domain raises as a scan does
        with pytest.raises(EvalError, match="^argument 4 outside"):
            va.apply_at(f, ("int", 4), j)
        with pytest.raises(EvalError, match="^EXCEPT key 4 outside"):
            va.except_at(f, ("int", 4), j, ("int", 0))


def _ints(*ks):
    return va.mk_set([("int", k) for k in ks])


def test_singleton_union_returns_the_operand_or_splices():
    a = _ints(2, 4, 6)
    for k in (2, 4, 6):
        assert va.set_union(a, _ints(k)) is a
    for k in (1, 3, 5, 7):  # the front, the middle and the end
        assert va.set_union(a, _ints(k)) == _ints(2, 4, 6, k)
    assert va.set_union(_ints(), _ints(3)) == _ints(3)
    assert va.set_union(_ints(3), _ints()) == _ints(3)
    assert va.set_union(a, _ints(1, 4, 9)) == _ints(1, 2, 4, 6, 9)
    pair = ("tup", (("int", 1), ("int", 2)))
    for left, right in ((("int", 1), _ints(1)), (a, ("int", 1)),
                        (("int", 1), _ints(1, 2)), (a, pair)):
        with pytest.raises(EvalError):
            va.set_union(left, right)


def test_tuple_apply_is_one_based():
    t = ("tup", (("str", "p"), ("str", "q")))
    assert va.apply_value(t, ("int", 1)) == ("str", "p")
    assert va.apply_value(t, ("int", 2)) == ("str", "q")


def test_fmt_value_round_trips_ordering():
    s = va.mk_set([("str", "b"), ("str", "a")])
    assert va.fmt_value(s) == '{"a", "b"}'


# --------------------------------------------------------------------------
# random expressions: eval_const vs oracle
#
# Every draw is well-typed by construction: `_rand_expr` builds an
# expression of a requested type, functions are applied only to a key
# of the literal domain they were built over, tuples only at an index
# they have, and `+` only to integers.

SCALARS = ("int", "str", "bool")
TYPES = SCALARS + ("set", "fun", "rec", "tup")
CONSTS = {"k0": ("int", 1), "k1": ("str", "a"),
          "k2": va.mk_set([("int", 0), ("int", 2)])}
CONST_TYPES = {"k0": "int", "k1": "str", "k2": "set"}


def _literal(rng, ty):
    if ty == "int":
        return sx.IntLit(rng.randrange(3))
    if ty == "str":
        return sx.StrLit(rng.choice("abc"))
    return sx.BoolLit(rng.random() < 0.5)


def _rand_fun(rng, body_ty, depth, env):
    """A function expression with a non-empty literal domain, and the
    literal keys of that domain."""
    key_ty = rng.choice(("int", "str"))
    pool = range(3) if key_ty == "int" else "abc"
    keys = [sx.IntLit(k) if key_ty == "int" else sx.StrLit(k)
            for k in rng.sample(pool, rng.randrange(1, 4))]
    body = _rand_expr(rng, body_ty, depth, {**env, "x": key_ty})
    f = sx.FuncLit("x", sx.SetLit(tuple(keys)), body)
    if rng.random() < 0.4:
        value = _rand_expr(rng, body_ty, depth, env)
        f = sx.Except(f, rng.choice(keys), value)
    return f, keys


def _reordered(rng, e):
    """e with its record fields or set elements in another order, which
    denotes the same value."""
    if isinstance(e, sx.RecordLit):
        return sx.RecordLit(tuple(rng.sample(e.fields, len(e.fields))))
    if isinstance(e, sx.SetLit):
        return sx.SetLit(tuple(rng.sample(e.elems, len(e.elems))))
    return e


def _rand_expr(rng, ty, depth, env):
    """A random expression of type `ty`; env maps the names in scope
    (constants and bound variables) to their types."""
    names = sorted(n for n, t in env.items() if t == ty)
    if depth == 0 and ty in SCALARS:
        if names and rng.random() < 0.4:
            return sx.Name(rng.choice(names))
        return _literal(rng, ty)
    d = max(depth - 1, 0)
    sub = lambda t: _rand_expr(rng, t, d, env)
    any_ty = lambda: rng.choice(TYPES if d else SCALARS)
    if ty in ("int", "str") or (ty == "bool" and rng.random() < 0.2):
        kind = rng.randrange(4 if ty == "int" else 3)
        if kind == 0:
            return _rand_expr(rng, ty, 0, env)
        if kind == 1:
            f, keys = _rand_fun(rng, ty, d, env)
            return sx.Apply(f, rng.choice(keys))
        if kind == 2:
            elems = [sub(any_ty()) for _ in range(rng.randrange(3))]
            i = rng.randrange(len(elems) + 1)
            elems.insert(i, sub(ty))
            return sx.Apply(sx.TupleLit(tuple(elems)), sx.IntLit(i + 1))
        return sx.Add(sub("int"), sub("int"))
    if ty == "bool":
        kind = rng.randrange(9)
        if kind == 0:
            return _rand_expr(rng, ty, 0, env)
        if kind == 1:
            t = any_ty()
            left = sub(t)
            right = _reordered(rng, left) if rng.random() < 0.3 else sub(t)
            return sx.Eq(left, right)
        if kind == 2:
            return sx.Not(sub("bool"))
        if kind in (3, 4):
            operands = tuple(sub("bool") for _ in range(rng.randrange(2, 4)))
            return (sx.And if kind == 3 else sx.Or)(operands)
        if kind == 5:
            return sx.Implies(sub("bool"), sub("bool"))
        if kind == 6:
            return sx.In(sub(any_ty()), sub("set"))
        t = any_ty()
        dom = sx.SetLit(tuple(sub(t) for _ in range(rng.randrange(3))))
        body = _rand_expr(rng, "bool", d, {**env, "q": t})
        return (sx.Forall if kind == 7 else sx.Exists)("q", dom, body)
    if ty == "set":
        kind = rng.randrange(3)
        if kind == 0 and names:
            return sx.Name(rng.choice(names))
        if kind == 1:
            return sx.Union(sub("set"), sub("set"))
        return sx.SetLit(tuple(sub(any_ty()) for _ in range(rng.randrange(4))))
    if ty == "fun":
        return _rand_fun(rng, any_ty(), d, env)[0]
    if ty == "rec":
        fields = rng.sample("fgh", rng.randrange(1, 4))
        return sx.RecordLit(tuple((f, sub(any_ty())) for f in fields))
    return sx.TupleLit(tuple(sub(any_ty()) for _ in range(rng.randrange(4))))


# a spec with no variables over CONSTS, to compile random properties in
CONST_SPEC = sx.SpecAst("M", tuple(CONSTS), (), (), (), None, None,
                        config=tuple(sorted(CONSTS.items())))


def _predicate(spec, body):
    """The compiled property, a function of the state returning a bool."""
    return _compile(spec, sx.PropertyDef("P", body))[2]["prop"]


def test_eval_const_matches_oracle_on_random_expressions():
    rng = random.Random(20240817)
    oenv = {k: oc._conv(v) for k, v in CONSTS.items()}
    forms = Counter()
    predicates = 0
    for _ in range(600):
        ty = rng.choice(TYPES)
        e = _rand_expr(rng, ty, 3, CONST_TYPES)
        forms.update(type(x).__name__ for x in sx._walk(e))
        got = eval_const(e, CONSTS)
        expected = oc.o_eval(e, dict(oenv))
        assert oc._conv(got) == expected, e
        if ty == "bool":
            # the same expression in a boolean position
            assert _predicate(CONST_SPEC, e)(()) == bool(expected), e
            predicates += 1
    assert predicates >= 50
    # every expression form the compiled evaluator handles was drawn
    assert set(forms) >= {
        "Name", "BoolLit", "IntLit", "StrLit", "SetLit", "TupleLit",
        "RecordLit", "FuncLit", "Apply", "Except", "Union", "Add", "In",
        "Eq", "Not", "And", "Or", "Implies", "Forall", "Exists"}
    assert min(forms.values()) >= 20


@pytest.mark.parametrize("text", [
    "1 + \"a\"",  # arithmetic on a string
    "[x \\in {1, 2} |-> x][3]",  # outside the function domain
    "[[x \\in {1} |-> x] EXCEPT ![2] = 0]",  # EXCEPT outside the domain
    "<<1, 2>>[0]",  # tuples are indexed from 1
    "~1",  # negation of an integer
    "1 \\in 2",  # membership in a non-set
    "v + 1",  # a state variable is not a constant
], ids=["add", "apply", "except", "index", "not", "member", "variable"])
def test_eval_const_rejects_ill_typed_expressions(text):
    e = parse("MODULE M\n\nVARIABLES v\n\nINIT\n  /\\ v = 0\n\n"
              "PROPERTY P\n  %s\n" % text).property("P").body
    with pytest.raises(EvalError):
        eval_const(e, CONSTS)


# --------------------------------------------------------------------------
# states and steps: the successor generator vs oracle


def _oracle_state(spec, q):
    return tuple(sorted(zip(spec.variables, (oc._conv(v) for v in q))))


SMALL = [twophase(2), lockserv(2), consensus(2)]
SMALL_IDS = ["twophase2", "lockserv2", "consensus2"]


@pytest.mark.parametrize("text", SMALL, ids=SMALL_IDS)
def test_compiled_successors_match_oracle(text):
    _assert_steps_match_oracle(parse(text))


def _assert_steps_match_oracle(spec):
    (q0,) = init_states(spec)
    assert _oracle_state(spec, q0) == oc.oracle_init(spec)
    succ = compiled_steps(spec)
    for q, out in succ.items():
        got = sorted(((a, oc._conv(d)), _oracle_state(spec, q2))
                     for (a, d), q2 in out)
        expected = oc.oracle_successors(spec, _oracle_state(spec, q))
        assert got == sorted(expected)
    seen, _ = oc.oracle_reach(spec)
    assert {_oracle_state(spec, q) for q in succ} == seen


@pytest.mark.parametrize("text", [twophase(3), lockserv(3), consensus(3)],
                         ids=["twophase3", "lockserv3", "consensus3"])
def test_compiled_enumeration_matches_oracle(text):
    spec = parse(text)
    l = to_lts(spec)  # the successor generator
    seen, edges = oc.oracle_reach(spec)
    assert l.n_states == len(seen)
    assert l.n_edges == len(edges)


@pytest.mark.parametrize("text", [twophase(3)] + SMALL,
                         ids=["twophase3"] + SMALL_IDS)
def test_compiled_predicate_matches_oracle(text):
    spec = parse(text)
    consts = oc._consts(spec)
    states = compiled_steps(spec)
    for prop in spec.properties:
        pred = _predicate(spec, prop.body)
        for q in states:
            env = {**consts, **dict(_oracle_state(spec, q))}
            assert pred(q) == bool(oc.o_eval(prop.body, env))


def _fun_spec(variables, init, guards, updates, domain):
    return parse(
        "MODULE M\n\nVARIABLES %s\n\nINIT\n%s\n"
        "ACTION Step(d)\n%s\n"
        "NEXT \\E d \\in %s :\n  \\/ Step(d)\n"
        % (variables, "".join("  /\\ %s\n" % c for c in init),
           "".join("  /\\ %s\n" % c for c in guards + updates), domain))


# Application and EXCEPT at the action parameter where the function's
# domain is not the Next domain, so that pair j of its graph may hold
# another key or none, and where the applied value is a tuple.
POSITIONAL = {
    "subset": _fun_spec(
        "f", ['f = [x \\in {"b", "d"} |-> 0]'],
        ['d \\in {"b", "d"}', "f[d] = 0"], ["f' = [f EXCEPT ![d] = 1]"],
        '{"a", "b", "c", "d"}'),
    "superset": _fun_spec(
        "f", ['f = [x \\in {"a", "b", "c", "d"} |-> 0]'],
        ["f[d] = 0"], ["f' = [f EXCEPT ![d] = f[d] + 1]"], '{"b", "c"}'),
    "tuple": _fun_spec(
        "t, n", ["t = <<5, 6, 7>>", "n = 0"],
        ["n = 0"], ["n' = t[d]", "UNCHANGED <<t>>"], "{1, 3}"),
}


@pytest.mark.parametrize("case", sorted(POSITIONAL))
def test_positional_application_matches_oracle(case):
    spec = POSITIONAL[case]
    l = to_lts(spec)
    seen, edges = oc.oracle_reach(spec)
    assert (l.n_states, l.n_edges) == (len(seen), len(edges))
    assert l.n_edges > 0
    _assert_steps_match_oracle(spec)


@pytest.mark.parametrize("update,message", [
    ("f' = [f EXCEPT ![\"a\"] = f[d]]",
     'argument "b" outside function domain'),
    ("f' = [f EXCEPT ![d] = 1]", 'EXCEPT key "b" outside function domain'),
    ("f' = n[d]", "cannot apply 0"),
], ids=["apply", "except", "non-function"])
def test_positional_application_outside_the_domain_raises(update, message):
    # pair 1 of f's graph holds "c" when d = "b", at position 1
    spec = _fun_spec("f, n", ['f = [x \\in {"a", "c"} |-> 0]', "n = 0"],
                     [], [update, "UNCHANGED <<n>>"], '{"a", "b", "c"}')
    with pytest.raises(EvalError) as got:
        to_lts(spec)
    assert str(got.value) == message


def _assert_properties_match_oracle(spec):
    """`violates` on every reachable coded state, and `err_reach`'s
    verdict, against the oracle."""
    consts = oc._consts(spec)
    for prop in spec.properties:
        _, ns, steps = walk(spec, prop)
        for c in steps:
            env = {**consts, **dict(_oracle_state(spec, ns["decode"](c)))}
            assert ns["violates"](c) == (not oc.o_eval(prop.body, env))
        holds, _ = oc.oracle_check(spec, prop)
        assert err_reach(spec, prop)[0] == (not holds), prop.name


def _spec(init, actions, properties=(), domain="{0, 1, 2}"):
    """A spec with the variables and initial values of `init`; `actions`
    maps each action name, with parameter d, to its conjuncts, and
    `properties` lists (name, body) pairs."""
    return parse(
        "MODULE M\n\nVARIABLES %s\n\nINIT\n%s\n%s"
        "NEXT \\E d \\in %s :\n%s\n%s"
        % (", ".join(init), "".join("  /\\ %s = %s\n" % vx
                                     for vx in init.items()),
           "".join("ACTION %s(d)\n%s\n" % (name, "".join(
               "  /\\ %s\n" % c for c in body))
               for name, body in actions.items()),
           domain, "".join("  \\/ %s(d)\n" % name for name in actions),
           "".join("PROPERTY %s\n  %s\n\n" % p for p in properties)))


def _zeros(variables):
    return dict.fromkeys(variables, "0")


# Small specs whose cached actions' read sets each need one of the rules:
# (spec, the actions that must be cached).
READ_SETS = {
    # Set reads x only through its frame: its one successor keeps x
    "updated-and-unchanged": (_spec(_zeros("xyz"), {
        "Set": ["x' = d", "y' = d", "UNCHANGED <<x, z>>"],
        "Bump": ["x' = d", "UNCHANGED <<y, z>>"],
    }), ["Set", "Bump"]),
    "updated-twice": (_spec(_zeros("xyz"), {
        "Two": ["x' = d", "x' = y", "UNCHANGED <<y, z>>"],
        "SetY": ["y' = d", "UNCHANGED <<x, z>>"],
    }), ["Two", "SetY"]),
    # Bump reads no variable: its successors are cached under ()
    "empty-key": (_spec(_zeros("xy"), {
        "Bump": ["x' = d", "UNCHANGED <<y>>"],
        "Copy": ["y' = x", "UNCHANGED <<x>>"],
    }), ["Bump", "Copy"]),
    # the state variable y is read in the binder's domain, the bound y in
    # its body
    "shadowing-binder": (_spec(_zeros("xyz"), {
        "Shadow": ["(\\E y \\in {y, 2} : y = d)", "z' = d",
                   "UNCHANGED <<x, y>>"],
        "SetY": ["y' = d", "UNCHANGED <<x, z>>"],
    }, [("Shadowed", "\\A x \\in {0, 1} : x = x /\\ y \\in {0, 1, 2}"),
        ("Bounded", "z = 0 \\/ z = 1")]), ["Shadow", "SetY"]),
    # properties that read no variable, memoized under ()
    "constant-properties": (_spec(_zeros("xy"), {
        "Bump": ["x' = d", "UNCHANGED <<y>>"],
    }, [("Holds", "\\A v \\in {0, 1} : v \\in {0, 1}"),
        ("Fails", "\\E v \\in {0, 1} : v = 2")]), ["Bump"]),
}


@pytest.mark.parametrize("case", sorted(READ_SETS))
def test_read_sets_match_oracle(case):
    spec, cached = READ_SETS[case]
    ns = _compile(spec)[2]
    assert {a.name for k, a in enumerate(spec.actions)
            if "_c%d" % k in ns} == set(cached)
    l = to_lts(spec)
    seen, edges = oc.oracle_reach(spec)
    assert (l.n_states, l.n_edges) == (len(seen), len(edges))
    _assert_steps_match_oracle(spec)
    _assert_properties_match_oracle(spec)


def test_positional_binders_match_oracle():
    # the binders range over strict subsets (NotBoth, Except) and
    # supersets (Mark, Known) of f's domain, so that position j_x of f's
    # graph may hold another key than x
    spec = _spec({"f": '[x \\in {"a", "b", "c", "d"} |-> 0]', "n": "0"}, {
        "Inc": ["f[d] = 0", "f' = [f EXCEPT ![d] = 1]", "UNCHANGED <<n>>"],
        "Mark": ['n\' = [x \\in {"A", "a", "b", "c", "d"} |-> '
                 'x = "A" \\/ f[x] = 1]', "UNCHANGED <<f>>"],
    }, [("NotBoth", '~(\\A x \\in {"b", "d"} : f[x] = 1)'),
        ("Except", '\\A x \\in {"a", "c"} : [f EXCEPT ![x] = 1][x] = 1'),
        ("Known", '\\A x \\in {"A", "a", "b", "c", "d"} : '
                  'x = "A" \\/ f[x] \\in {0, 1}')], '{"a", "b", "c", "d"}')
    cg = _Codegen(spec.config, spec.variables, spec.name)
    assert _inline_apply("q[0]", "b_x", "j_x") in cg.successors_fn(
        spec.actions)
    for prop in spec.properties:
        src = cg.predicate_fn(prop.body)
        assert "for j_x, b_x in enumerate(" in src, prop.name
        # a scan only where the inline check misses
        assert src.count("_apply(") == src.count(" else _apply(")
        assert "_except(" not in src
    assert "_except_at(q[0], b_x, j_x, " in cg.predicate_fn(
        spec.property("Except").body)
    l = to_lts(spec)
    seen, edges = oc.oracle_reach(spec)
    assert (l.n_states, l.n_edges) == (len(seen), len(edges))
    _assert_steps_match_oracle(spec)
    _assert_properties_match_oracle(spec)


def test_twophase_applies_and_updates_at_the_parameter_position():
    spec = parse(twophase(3))
    src = _Codegen(spec.config, spec.variables,
                   spec.name).successors_fn(spec.actions)
    # rmState is q[1]; SndPrepare and SilentAbort read rmState[rm], and
    # four actions update it at rm
    assert src.count(_inline_apply("q[1]", "_d", "j")) == 2
    assert src.count("_except_at(q[1], _d, j, ") == 4
    assert src.count("_apply(") == 2 and "_except(" not in src
    # Consistent applies rmState at the positions of its two binders, and
    # its rm1 disjunct runs once per rm1, before the loop over rm2;
    # RMs is a non-empty constant set, so both loops read its elements
    # from the module, bound once
    cg = _Codegen(spec.config, spec.variables, spec.name)
    src = cg.predicate_fn(spec.property("Consistent").body)
    rm1, rm2 = (_inline_apply("q[1]", "b_" + x, "j_" + x)
                for x in ("rm1", "rm2"))
    assert src == (
        "def prop(q):\n    return all(((not (%s == ('str', 'aborted'))) or "
        "all((not (%s == ('str', 'committed'))) for j_rm2, b_rm2 in "
        "enumerate(_h0))) for j_rm1, b_rm1 in enumerate(_h0))\n"
        % (rm1, rm2))
    assert cg.hoisted == {"_elems(c_RMs)": "_h0"}
    _assert_properties_match_oracle(spec)


def test_mutex_is_not_hoisted():
    # its leading disjunct x = y mentions the inner variable
    spec = parse(lockserv(3))
    src = _Codegen(spec.config, spec.variables, spec.name).predicate_fn(
        spec.property("Mutex").body)
    assert ":=" not in src
    assert src.startswith("def prop(q):\n    return all(all(((b_x == b_y) "
                          "or (not (")


def test_every_binder_reads_a_constant_set_domain_from_the_module():
    """Mutex's two quantifiers hoist nothing, and a function literal
    never does; each still reads Clients' elements from the one
    module-level name they are bound to, not from `_elems` per call."""
    spec = parse(lockserv(3) + "\nPROPERTY Fun\n  [c \\in Clients |-> 0] "
                 "= [c \\in Clients |-> 0]\n")
    for name in ("Mutex", "Fun"):
        cg = _Codegen(spec.config, spec.variables, spec.name)
        src = cg.predicate_fn(spec.property(name).body)
        assert cg.hoisted == {"_elems(c_Clients)": "_h0"}, name
        assert "_elems(c_Clients)" not in src, name
        assert src.count("_h0") == 2, name
    _assert_properties_match_oracle(spec)


def _inline_apply(f, b, j):
    """Source of the inline application of the state read f at the bound
    name b, at position j: the pair at j if it holds b, else the scan."""
    return ("(%s[1][%s][1] if %s[0] == 'fun' and %s < len(%s[1]) and "
            "%s[1][%s][0] == %s else _apply(%s, %s))"
            % (f, j, f, j, f, f, j, b, f, b))


# Quantifier bodies whose leading parts do not mention the bound name,
# so that the compiled code tests them once, before the loop.
HOISTED = _spec({"f": '[x \\in {"a", "b", "c"} |-> 0]', "n": "0"}, {
    "Set": ["f[d] = 0", "f' = [f EXCEPT ![d] = 1]", "UNCHANGED <<n>>"],
    "Inc": ["n \\in {0, 1}", "n' = n + 1", "UNCHANGED <<f>>"],
}, [("Or", '\\A x \\in {"a", "b", "c"} : n = 2 \\/ f[x] = 0'),
    ("NotAnd", '\\A x \\in {"a", "b"} : ~(n = 1 /\\ f[x] = 1)'),
    ("Implies", '\\A x \\in {"b", "c"} : n = 0 => f[x] = 1'),
    ("And", '\\E x \\in {"a", "c"} : n = 1 /\\ f[x] = 1'),
    ("NotOr", '\\E x \\in {"a", "b", "c"} : ~(n = 0 \\/ f[x] = 0)'),
    # the inner x shadows the outer one, so the inner quantifier is
    # hoisted out of the outer loop, and hoists n = 1 out of its own
    ("Shadowed", '\\A x \\in {"a", "b"} : '
                 '(\\E x \\in {"b", "c"} : n = 1 /\\ f[x] = 1) \\/ f[x] = 0'),
    # the inner domain depends on the outer bound name
    ("Dependent", '\\A x \\in {"a", "b"} : \\A y \\in {x, "c"} : '
                  'f[x] = 0 \\/ f[y] = 1'),
    ("DependentE", '\\E x \\in {"a", "b"} : \\E y \\in {x, "c"} : '
                   'f[x] = 1 /\\ f[y] = 0')], '{"a", "b", "c"}')


def test_hoisted_quantifiers_match_oracle():
    spec = HOISTED
    for prop in spec.properties:
        src = _Codegen(spec.config, spec.variables,
                       spec.name).predicate_fn(prop.body)
        assert "(s0 := _elems(" in src, prop.name
        # each hoisting quantifier binds its own domain's elements
        assert ("(s1 := _elems(" in src) == (prop.name == "Shadowed")
        _, ns, steps = walk(spec, prop)
        # each property holds in some reachable states and not in others
        assert {ns["violates"](c) for c in steps} == {False, True}
    _assert_properties_match_oracle(spec)


# Hoisting quantifiers over CONFIG constants: S a non-empty set, E the
# empty set, K no set at all.
CONST_DOMAINS = """MODULE C

CONSTANTS S, E, K

VARIABLES f, n

CONFIG
  S = {"a", "b"}
  E = {}
  K = 1

INIT
  /\\ f = [x \\in S |-> 0]
  /\\ n = 0

ACTION Set(d)
  /\\ f[d] = 0
  /\\ f' = [f EXCEPT ![d] = 1]
  /\\ UNCHANGED <<n>>

ACTION Inc(d)
  /\\ n \\in {0, 1}
  /\\ n' = n + 1
  /\\ UNCHANGED <<f>>

NEXT \\E d \\in S :
  \\/ Set(d)
  \\/ Inc(d)

PROPERTY Forall
  \\A x \\in S : \\A y \\in S : f[x] = 0 \\/ f[y] = 1

PROPERTY Exists
  \\A x \\in S : f[x] = 0 \\/ (\\E y \\in S : n = 1 /\\ f[y] = 1)

PROPERTY EmptyForall
  n = 2 \\/ (\\A x \\in S : \\A y \\in E : f[x] = 0 \\/ f[y] = 1)

PROPERTY EmptyExists
  n = 0 \\/ (\\E x \\in E : n = 1 /\\ f[x] = 1)
"""


def test_constant_set_domains_are_decided_at_compile_time():
    spec = parse(CONST_DOMAINS + "\nPROPERTY NoSet\n  "
                 "\\A x \\in K : n = 0 \\/ f[x] = 1\n")
    sources = {}
    for prop in spec.properties:
        cg = _Codegen(spec.config, spec.variables, spec.name)
        sources[prop.name] = cg.predicate_fn(prop.body), cg.hoisted
    # a non-empty one is bound once, with no emptiness test
    for name in ("Forall", "Exists"):
        src, hoisted = sources[name]
        assert hoisted == {"_elems(c_S)": "_h0"}
        assert "enumerate(_h0)" in src and ":=" not in src, name
    # an empty one leaves the quantifier's value alone
    assert sources["EmptyForall"] == (
        "def prop(q):\n    return ((q[1] == ('int', 2)) or "
        "all(True for b_x in _h0))\n", {"_elems(c_S)": "_h0"})
    assert sources["EmptyExists"] == (
        "def prop(q):\n    return ((q[1] == ('int', 0)) or False)\n", {})
    # any other domain compiles as before, and fails where it is read
    src, hoisted = sources["NoSet"]
    assert "(s0 := _elems(c_K)) == ()" in src and hoisted == {}
    with pytest.raises(EvalError) as got:
        err_reach(spec, spec.property("NoSet"))
    assert str(got.value) == "expected a set, got 1"
    spec = parse(CONST_DOMAINS)
    _assert_properties_match_oracle(spec)
    for name in ("Forall", "Exists", "EmptyExists"):
        _, ns, steps = walk(spec, spec.property(name))
        assert {ns["violates"](c) for c in steps} == {False, True}, name


def _property(text):
    return parse("MODULE M\n\nVARIABLES v\n\nINIT\n  /\\ v = 0\n\n"
                 "PROPERTY P\n  %s\n" % text).property("P").body


@pytest.mark.parametrize("text,empty", [
    ("\\A x \\in %s : 1 \\/ x = 0", True),
    ("\\E x \\in %s : 1 /\\ x = 0", False),
], ids=["forall", "exists"])
def test_hoisted_ill_typed_part_raises_only_over_a_non_empty_domain(text,
                                                                     empty):
    # the hoisted 1 is not a boolean, which only evaluating it shows
    assert _predicate(CONST_SPEC, _property(text % "{}"))(()) is empty
    with pytest.raises(EvalError) as got:
        _predicate(CONST_SPEC, _property(text % "{0}"))(())
    assert str(got.value) == "expected a boolean, got 1"


# Applications of a state variable at a binder's bound name where the
# inline check misses: (property, the variable, argument and position
# whose application raises, or None where the property evaluates).
MISSES = {
    # the binder's domain is not f's: pair j_x of f holds another key
    "other-domain": ('\\A x \\in {"b", "c"} : f[x] = 0', None),
    "outside-domain": ('\\E x \\in {"c", "z"} : f[x] = 1',
                       ("f", ("str", "z"), 1)),
    "tuple": ("\\A x \\in {1, 2} : t[x] \\in {5, 6}", None),
    "tuple-index": ("\\A x \\in {2, 3} : t[x] = 6", ("t", ("int", 3), 1)),
    "non-function": ("\\A x \\in {1} : n[x] = 0", ("n", ("int", 1), 0)),
}


@pytest.mark.parametrize("case", sorted(MISSES))
def test_inline_application_misses_match_the_helper(case):
    text, raises = MISSES[case]
    spec = _spec({"f": '[x \\in {"a", "b", "c"} |-> 0]', "t": "<<5, 6>>",
                  "n": "0"}, {"Idle": ["n = 1", "UNCHANGED <<f, t, n>>"]},
                 [("P", text)], '{"a"}')
    body = spec.property("P").body
    src = _Codegen(spec.config, spec.variables, spec.name).predicate_fn(body)
    assert " else _apply(q[" in src and "_apply_at(" not in src
    (q,) = init_states(spec)
    pred = _predicate(spec, body)
    if raises is None:
        env = {**oc._consts(spec), **dict(_oracle_state(spec, q))}
        assert pred(q) is True and bool(oc.o_eval(body, env))
        return
    name, key, j = raises
    with pytest.raises(EvalError) as expected:
        va.apply_at(q[spec.variables.index(name)], key, j)
    with pytest.raises(EvalError) as got:
        pred(q)
    assert str(got.value) == str(expected.value)


def test_conflicting_init_has_no_states():
    spec = parse("MODULE M\n\nVARIABLES x\n\nINIT\n  /\\ x = 0\n  /\\ x = 1\n")
    assert init_states(spec) == set()


def test_unconstrained_variable_is_an_error():
    text = ("MODULE M\n\nVARIABLES x, y\n\nINIT\n  /\\ x = 0\n  /\\ y = 0\n\n"
            "ACTION Step(d)\n  /\\ x' = 1\n\n"
            "NEXT \\E d \\in {\"a\"} :\n  \\/ Step(d)\n")
    with pytest.raises(sx.SpecError, match="Step leaves y unconstrained"):
        parse(text)
