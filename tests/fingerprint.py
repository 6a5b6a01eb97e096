"""Print a fingerprint of everything recomp computes on the corpus.

    python3 tests/fingerprint.py SRC_DIR [SIZE ...]

Imports `recomp` from SRC_DIR (a checkout's `src/`) and prints one line
per row, for every `recomp.corpus.ALL` model at each size (default 2, 3
and 4) and every property, with bound 30,000:

- `to_lts` and `err_lts`: state, edge and pi figures and a digest of the
  LTS arrays (alphabet, offsets, labels, targets, initial states);
- `err_reach`: verdict, state count and witness;
- the groups `recomp_verify` builds under S1-S3 after static reduction:
  each group's name, action order and digests of its LTS (`err_lts`
  for the property group, `to_lts` for the others) and of that LTS's
  strong and observational quotients, the latter hiding what
  `comp_verify` hides (the labels no other group's actions name);
- `recomp_verify` under S1-S4, each with strong and observational
  minimization: verdict, reason, witness, n, m, k, stages, `max_states`.

A row that raises prints the exception's type and message instead.  The
process caps its own address space at 1.2 GB, so a check that needs more
prints `MemoryError`.  Two checkouts compute the same results exactly
when their outputs are byte-identical, which `diff` shows.
"""

import hashlib
import resource
import sys

BOUND = 30_000
ADDRESS_SPACE = 1200 * 2 ** 20
STRATEGIES = ("S1", "S2", "S3", "S4")
GROUPED = ("S1", "S2", "S3")
MODES = ("strong", "observational")


def _digest(l):
    """A digest of the LTS arrays, with each tau label's counter dropped:
    it numbers the taus of the whole process."""
    from recomp.lts import is_tau

    alphabet = tuple(("τ",) if is_tau(lab) else lab for lab in l.alphabet)
    arrays = repr((alphabet, l.offsets, l.labels, l.dsts, l.initials))
    return hashlib.sha256(arrays.encode()).hexdigest()[:16]


def _lts_row(l):
    return "states=%d edges=%d pi=%r %s" % (l.n_states, l.n_edges, l.pi,
                                            _digest(l))


def _groups_row(spec, prop, kind):
    from recomp import (decompose, err_lts, make_strategy, minimize,
                        static_reduce, to_lts, total_order)
    from recomp.engine import _minimized
    from recomp.recompose import build_groups
    from recomp.syntax import symbolic_actions

    comps = decompose(spec, prop)
    comps = [comps[i - 1] for i in total_order(comps, spec)]
    f = static_reduce(make_strategy(kind, len(comps)), comps)
    d_p, groups = build_groups(f, comps, spec)
    lts = [err_lts(d_p, prop, BOUND)] + [to_lts(g, BOUND) for g in groups]
    alphas = [symbolic_actions(g) for g in [d_p] + groups]
    cells = []
    for i, (g, l) in enumerate(zip([d_p] + groups, lts)):
        visible = set().union(*alphas[:i], *alphas[i + 1:])
        cells.append("%s[%s] %s strong=%s observational=%s" % (
            g.name, ",".join(a.name for a in g.actions), _digest(l),
            _digest(minimize(l, "strong")),
            _digest(_minimized(l, "observational", visible, None))))
    return " ; ".join(cells)


def _verify_row(verdict, stats):
    return "%s reason=%s witness=%r n=%d m=%d k=%d max=%d stages=%r" % (
        verdict.outcome, verdict.reason, verdict.witness, stats.n, stats.m,
        stats.k, stats.max_states, stats.stages)


def _row(key, f):
    try:
        out = f()
    except (Exception, MemoryError) as exc:
        out = "%s: %s" % (type(exc).__name__, exc)
    print("%s | %s" % (key, out), flush=True)


def main(argv):
    sys.path.insert(0, argv[1])
    from recomp import parse, recomp_verify
    from recomp.corpus import ALL
    from recomp.semantics import err_lts, err_reach, to_lts

    sizes = [int(a) for a in argv[2:]] or [2, 3, 4]
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > ADDRESS_SPACE:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, hard))
    for name in sorted(ALL):
        for n in sizes:
            spec = parse(ALL[name](n))
            case = "%s(%d)" % (name, n)
            _row(case + " to_lts", lambda: _lts_row(to_lts(spec, BOUND)))
            for prop in spec.properties:
                case_p = "%s %s" % (case, prop.name)
                _row(case_p + " err_lts",
                     lambda: _lts_row(err_lts(spec, prop, BOUND)))
                _row(case_p + " err_reach",
                     lambda: err_reach(spec, prop, BOUND))
                for s in GROUPED:
                    _row("%s %s groups" % (case_p, s),
                         lambda: _groups_row(spec, prop, s))
                for s in STRATEGIES:
                    for mode in MODES:
                        _row("%s %s %s" % (case_p, s, mode),
                             lambda: _verify_row(*recomp_verify(
                                 spec, prop, s, bound=BOUND,
                                 minimize_mode=mode)))


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    main(sys.argv)
