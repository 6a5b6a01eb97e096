from pathlib import Path

import pytest

import oracle as oc
from recomp import parse, recomp_verify
from recomp import syntax as sx
from recomp.corpus import ALL, twophase
from recomp.engine import HOLDS, VIOLATED
from recomp.parser import ParseError
from spec_helpers import pretty


@pytest.mark.parametrize("name", sorted(ALL))
def test_pretty_round_trip(name):
    spec = parse(ALL[name]())
    text = pretty(spec)
    again = parse(text)
    assert again == spec
    assert pretty(again) == text  # fixed point


@pytest.mark.parametrize("name", sorted(ALL))
def test_bundled_corpus_matches_the_generator(name):
    """The tracked corpus/<name>3.spec files, which README's quick start
    reads, are the pretty-printed generator text at size 3."""
    path = Path(__file__).parent.parent / "corpus" / ("%s3.spec" % name)
    assert path.read_text() == pretty(parse(ALL[name](3)))


def _module(body):
    return "MODULE M\n\nVARIABLES x\n\nINIT\n  /\\ x = 0\n" + body


MINI = _module("""
ACTION Inc(d)
  /\\ x = 0
  /\\ x' = x + 1

NEXT \\E d \\in {"a"} :
  \\/ Inc(d)

PROPERTY Small
  x = 0 \\/ x = 1
""")


def test_parse_sections():
    spec = parse(MINI)
    assert spec.name == "M"
    assert spec.variables == ("x",)
    assert [a.name for a in spec.actions] == ["Inc"]
    assert spec.next_var == "d"
    assert spec.property("Small").name == "Small"


def test_operator_precedence():
    spec = parse(MINI.replace("x = 0 \\/ x = 1",
                              "x = 0 \\/ x = 1 /\\ ~x = 2 => x \\in {0}"))
    body = spec.property("Small").body
    # => binds loosest, then \/, then /\, then ~, then the comparisons
    assert isinstance(body, sx.Implies)
    assert isinstance(body.left, sx.Or)
    second = body.left.operands[1]
    assert isinstance(second, sx.And)
    # ~ binds tighter than =, so the last conjunct is (~x) = 2
    assert isinstance(second.operands[1], sx.Eq)
    assert isinstance(second.operands[1].left, sx.Not)
    assert isinstance(body.right, sx.In)


def test_comparison_is_non_associative():
    with pytest.raises(ParseError):
        parse(MINI.replace("x = 0 \\/ x = 1", "x = 0 = 1"))


def test_comments_ignored():
    spec = parse(MINI.replace("PROPERTY Small",
                              "\\* a trailing remark\nPROPERTY Small"))
    assert spec.property("Small")


def test_bracket_forms():
    spec = parse(MINI.replace(
        "x = 0 \\/ x = 1",
        '[n \\in {1, 2} |-> n] = [f |-> "g"] \\/ [x EXCEPT ![1] = 2] = x'))
    left, right = spec.property("Small").body.operands
    assert isinstance(left.left, sx.FuncLit)
    assert isinstance(left.right, sx.RecordLit)
    assert isinstance(right.left, sx.Except)


def test_error_reports_location():
    with pytest.raises(ParseError) as exc:
        parse("MODULE M\n\nVARIABLES x ,\n")
    assert str(exc.value).startswith("4:1:")
    assert exc.value.line == 4


@pytest.mark.parametrize("conjunct,message", [
    ("rmState' /= 1", "neither a guard, an update, nor a frame"),
    ("tmState' = tmState'", "update right-hand side must not contain"),
])
def test_a_malformed_conjunct_names_its_action_and_line(conjunct, message):
    text = twophase(2).replace(
        "ACTION SilentAbort(rm)\n",
        "ACTION SilentAbort(rm)\n  /\\ %s\n" % conjunct)
    line = text.splitlines().index("  /\\ %s" % conjunct) + 1
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (line, 3)
    assert str(exc.value).startswith("%d:3: action SilentAbort: " % line)
    assert message in str(exc.value)


def test_next_must_apply_every_action_once():
    with pytest.raises(ParseError):
        parse(MINI.replace("\\/ Inc(d)", "\\/ Inc(d)\n  \\/ Inc(d)"))


def test_next_must_use_bound_variable():
    with pytest.raises(ParseError):
        parse(MINI.replace("\\/ Inc(d)", "\\/ Inc(e)"))


def test_config_must_bind_declared_constants():
    bad = MINI.replace("VARIABLES x", "VARIABLES x\n\nCONFIG\n  K = {1}")
    with pytest.raises(sx.SpecError):
        parse(bad)


def test_config_entries_see_earlier_ones():
    text = ("MODULE M\n\nCONSTANTS A, B\n\nVARIABLES x\n\n"
            "CONFIG\n  A = {1, 2}\n  B = A \\union {3}\n\n"
            "INIT\n  /\\ x = 0\n")
    spec = parse(text)
    cfg = dict(spec.config)
    assert cfg["B"] == ("set", (("int", 1), ("int", 2), ("int", 3)))


def test_unknown_property_raises():
    with pytest.raises(sx.SpecError):
        parse(MINI).property("Nope")


def test_quantifier_conjunct_requires_parens():
    # the canonical printer emits parens around a quantifier conjunct;
    # check they round-trip
    text = _module("""
ACTION Step(d)
  /\\ (\\A n \\in {1} : x = 0)
  /\\ x' = x

NEXT \\E d \\in {"a"} :
  \\/ Step(d)
""")
    spec = parse(text)
    a = spec.actions[0]
    assert len(a.conjuncts) == 2
    assert isinstance(a.conjuncts[0], sx.Forall)
    assert parse(pretty(spec)) == spec


# a bare quantifier conjunct, then a bullet at its column
BARE = """MODULE Bare

CONSTANTS S

VARIABLES f, s

CONFIG
  S = {"a", "b"}

INIT
  /\\ f = [q \\in S |-> "v0"]
  /\\ s = "v0"

ACTION Go(p)
  /\\ %s
  /\\ s' = "v1"
  /\\ f' = [f EXCEPT ![p] = "v1"]

ACTION Back(p)
  /\\ f[p] = "v1"
  /\\ f' = [f EXCEPT ![p] = "v0"]
  /\\ UNCHANGED <<s>>

NEXT \\E p \\in S :
  \\/ Go(p)
  \\/ Back(p)

PROPERTY Stays
  s = "v0"

PROPERTY SomeV0
  \\E q \\in S : f[q] = "v0"
"""
QUANTIFIER = '\\E q \\in S : f[q] = "v0" /\\ q /= p'


def test_bare_quantifier_conjunct_ends_at_the_next_bullet():
    """As in TLA+, a `/\\` at the column of the list's bullets ends the
    quantifier's body, so the bare conjunct parses as the parenthesized
    one; a `/\\` right of that column continues the body."""
    bare = parse(BARE % QUANTIFIER)
    assert bare == parse(BARE % ("(%s)" % QUANTIFIER))
    go = bare.actions[0]
    assert len(go.conjuncts) == 3
    assert isinstance(go.conjuncts[0], sx.Exists)
    assert isinstance(go.conjuncts[0].body, sx.And)
    wrapped = parse(BARE % QUANTIFIER.replace(" /\\", "\n        /\\"))
    assert wrapped == bare


def test_bare_quantifier_conjunct_agrees_with_the_oracle():
    spec = parse(BARE % QUANTIFIER)
    for prop in spec.properties:
        holds, _ = oc.oracle_check(spec, prop)
        for kind in ("S1", "S2", "S3", "S4"):
            for mode in ("strong", "observational"):
                verdict, _ = recomp_verify(spec, prop, kind,
                                           minimize_mode=mode)
                assert verdict.outcome == (HOLDS if holds else VIOLATED)
                if not holds and mode == "strong":
                    trace = [(a, oc._conv(d)) for a, d in verdict.witness]
                    end = oc.oracle_replay(spec, trace)
                    assert not oc.o_eval(prop.body,
                                         {**oc._consts(spec), **dict(end)})
