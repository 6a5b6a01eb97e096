"""Print a fingerprint of everything recomp computes on the corpus.

    python3 tests/fingerprint.py SRC_DIR [SIZE ...]

Imports `recomp` from SRC_DIR (a checkout's `src/`) and prints one line
per row, for every `recomp.corpus.ALL` model at each size (default 2, 3
and 4) and every property, with bound 30,000:

- `to_lts` and `err_lts`: state, edge and pi figures and a digest of the
  LTS arrays (alphabet, offsets, labels, targets, initial states);
- `err_reach`: verdict, state count and witness;
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
MODES = ("strong", "observational")


def _lts_row(l):
    arrays = repr((l.alphabet, l.offsets, l.labels, l.dsts, l.initials))
    digest = hashlib.sha256(arrays.encode()).hexdigest()[:16]
    return "states=%d edges=%d pi=%r %s" % (l.n_states, l.n_edges, l.pi,
                                            digest)


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
