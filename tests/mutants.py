"""Mutants of the corpus models, checked against the brute-force oracle.

    python3 tests/mutants.py SRC_DIR [--seeds N]

Imports `recomp` from SRC_DIR (a checkout's `src/`).  For each seed from
0 up to N (default 300), `mutant(seed)` picks one
of `MODELS` and changes its text one to three times: it drops a guard,
negates the `=` of a guard, or swaps a string literal of an action for
another literal of the model, a CONFIG element aside.  `check` parses the
mutant and runs every property under S1-S4 and two random recomposition
maps, S1-S3 and the maps with strong and with observational
minimization.  Every verdict must match `tests/oracle.py`, and every
strong or S4 witness must replay on the oracle to a violating state.

Mutants keep the cross-group synchronization of the corpus, which random
grammar-made specs rarely have, so they test composition where it can
go wrong.  The script prints one line per mutant and one per failing
check, and exits with status 1 if any check failed.  The tier-1 suite
runs a few seeds (`tests/test_mutants.py`).
"""

import random
import re
import sys

MODELS = (("twophase", 2), ("twophase", 3), ("lockserv", 2),
          ("lockserv", 3), ("consensus", 2))
MODES = ("strong", "observational")

_STRING = re.compile(r'"[^"\n]*"')


def _action_conjuncts(lines):
    """Indices of the conjunct lines of the ACTION sections, and of those
    that are guards: no primed variable, no UNCHANGED."""
    out, guards = [], []
    section = None
    for i, line in enumerate(lines):
        if line and not line[0].isspace():
            section = line.split()[0]
        elif section == "ACTION" and line.lstrip().startswith("/\\"):
            out.append(i)
            if "'" not in line and "UNCHANGED" not in line:
                guards.append(i)
    return out, guards


def _drop_guard(lines, rng, literals):
    _, guards = _action_conjuncts(lines)
    if not guards:
        return None
    i = rng.choice(guards)
    return "drop %r" % lines.pop(i).strip()


def _negate_eq(lines, rng, literals):
    _, guards = _action_conjuncts(lines)
    guards = [i for i in guards if " = " in lines[i]]
    if not guards:
        return None
    i = rng.choice(guards)
    lines[i] = lines[i].replace(" = ", " /= ", 1)
    return "negate %r" % lines[i].strip()


def _swap_literal(lines, rng, literals):
    conjuncts, _ = _action_conjuncts(lines)
    spots = [(i, m) for i in conjuncts
             for m in _STRING.finditer(lines[i]) if m.group() in literals]
    if not spots:
        return None
    i, m = rng.choice(spots)
    new = rng.choice([lit for lit in literals if lit != m.group()])
    lines[i] = lines[i][:m.start()] + new + lines[i][m.end():]
    return "swap %s for %s in %r" % (m.group(), new, lines[i].strip())


MUTATIONS = (_drop_guard, _negate_eq, _swap_literal)


def mutant(seed):
    """(model name and size, mutant text, the mutations made) for a seed."""
    from recomp.corpus import ALL

    rng = random.Random(seed)
    model, size = rng.choice(MODELS)
    text = ALL[model](size)
    config = re.search(r"^CONFIG\n[^\n]*", text, re.M).group()
    literals = sorted(set(_STRING.findall(text))
                      - set(_STRING.findall(config)))
    lines = text.split("\n")
    made = []
    count = rng.randint(1, 3)
    while len(made) < count:
        done = rng.choice(MUTATIONS)(lines, rng, literals)
        if done is not None:
            made.append(done)
    return "%s(%d)" % (model, size), "\n".join(lines), made


def random_map(rng, n):
    """A uniformly shaped valid recomposition map over n components."""
    from recomp.recompose import P, make_map

    if n == 1:
        return make_map([(1, P)])
    m = rng.randint(0, n - 1)
    rest = list(range(2, n + 1))
    rng.shuffle(rest)
    pairs = [(1, P)]
    for g, i in enumerate(rest[:m], start=1):
        pairs.append((i, g))  # keep every group nonempty
    for i in rest[m:]:
        pairs.append((i, rng.choice([P] + list(range(1, m + 1)))))
    return make_map(pairs)


def _replays(oc, spec, prop, witness):
    """Does the witness run, on the oracle, to a state violating prop?"""
    try:
        end = oc.oracle_replay(spec, [(a, oc._conv(d)) for a, d in witness])
    except AssertionError:  # a step that is not enabled
        return False
    return not oc.o_eval(prop.body, {**oc._consts(spec), **dict(end)})


def check(text, seed):
    """(number of checks run, descriptions of the failing ones) for one
    mutant's text; the random maps are drawn from `seed`."""
    import oracle as oc
    from recomp import decompose, parse, recomp_verify
    from recomp.engine import HOLDS, VIOLATED
    from recomp.order import Strategy

    rng = random.Random(seed)
    spec = parse(text)
    runs, failures = 0, []
    for prop in spec.properties:
        holds, _ = oc.oracle_check(spec, prop)
        expected = HOLDS if holds else VIOLATED
        n = len(decompose(spec, prop))
        strategies = [Strategy(k) for k in ("S1", "S2", "S3", "S4")]
        strategies += [Strategy("custom", custom=random_map(rng, n))
                       for _ in range(2)]
        for strat in strategies:
            # S4 searches the whole system and reduces nothing
            for mode in MODES[:1] if strat.kind == "S4" else MODES:
                runs += 1
                verdict, _ = recomp_verify(spec, prop, strat,
                                           minimize_mode=mode)
                where = "%s %s %s" % (prop.name, strat.kind, mode)
                if verdict.outcome != expected:
                    failures.append("%s: %s, expected %s" % (
                        where, verdict.outcome, expected))
                elif (expected == VIOLATED
                      and (mode == "strong" or strat.kind == "S4")
                      and not _replays(oc, spec, prop, verdict.witness)):
                    failures.append("%s: witness %r does not replay" % (
                        where, verdict.witness))
    return runs, failures


def main(argv):
    if len(argv) not in (2, 4) or (len(argv) == 4 and argv[2] != "--seeds"):
        sys.exit(__doc__)
    sys.path.insert(0, argv[1])
    seeds = int(argv[3]) if len(argv) == 4 else 300
    total, failed = 0, 0
    for seed in range(seeds):
        name, text, made = mutant(seed)
        runs, failures = check(text, seed)
        total += runs
        failed += len(failures)
        print("seed %d %s: %d checks, %d failed; %s" % (
            seed, name, runs, len(failures), "; ".join(made)), flush=True)
        for f in failures:
            print("  FAIL " + f, flush=True)
    print("%d checks, %d failed" % (total, failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
