"""Command-line front end.

Exit codes: 0 the property holds, 1 it is violated (a counterexample is
printed), 2 the run was inconclusive (state bound or timeout), 3 usage
or specification errors.
"""

from __future__ import annotations

import argparse
import sys

from .decompose import decompose
from .engine import (HOLDS, INCONCLUSIVE, MAX_TIMEOUT, MINIMIZE_MODES,
                     VIOLATED, ordered_components, run_portfolio)
from .order import KINDS, Strategy, data_flow_order, make_strategy, total_order
from .parser import parse
from .recompose import parse_map_file, render_map
from .report import render_report, render_text
from .semantics import DEFAULT_BOUND
from .syntax import SpecError

EXIT = {HOLDS: 0, VIOLATED: 1, INCONCLUSIVE: 2}
USAGE_ERROR = 3


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="recomp",
        description="Compositional explicit-state safety checker.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("spec", help="specification file")
        p.add_argument("--property", required=True, dest="prop",
                       help="name of the invariant to check")

    check = sub.add_parser("check", help="verify a property")
    common(check)
    check.add_argument("--strategy", default="portfolio",
                       help="s1|s2|s3|s4|portfolio|map:<file> (default: portfolio)")
    check.add_argument("--workers", type=int, default=4)
    check.add_argument("--bound", type=int, default=None,
                       help="state bound (default %d)" % DEFAULT_BOUND)
    check.add_argument("--timeout", type=float, default=None,
                       help="seconds before giving up (at most %d)"
                       % MAX_TIMEOUT)
    check.add_argument("--minimize", choices=MINIMIZE_MODES,
                       default="strong")
    check.add_argument("--format", choices=("text", "structured"),
                       default="text")

    dec = sub.add_parser("decompose", help="print the decomposition")
    common(dec)

    ordp = sub.add_parser("order", help="print the data-flow order and maps")
    common(ordp)
    return ap


def _load(args):
    with open(args.spec) as fh:
        spec = parse(fh.read())
    prop = spec.property(args.prop)
    return spec, prop


def _strategies(selector, spec, prop):
    sel = selector.lower()
    if sel == "portfolio":
        return [Strategy(k) for k in KINDS]
    if sel in ("s1", "s2", "s3", "s4"):
        return [Strategy(sel.upper())]
    if selector.startswith("map:"):
        path = selector[4:]
        comps = ordered_components(spec, prop)
        with open(path) as fh:
            f = parse_map_file(fh.read(), comps)
        return [Strategy("custom", custom=f)]
    raise SpecError("unknown strategy selector %r" % selector)


def _cmd_check(args):
    spec, prop = _load(args)
    strategies = _strategies(args.strategy, spec, prop)
    verdict, stats, winner = run_portfolio(
        spec, prop, strategies, workers=args.workers, timeout=args.timeout,
        bound=args.bound, minimize_mode=args.minimize)
    if args.format == "structured":
        sys.stdout.write(render_report(verdict, stats))
    else:
        sys.stdout.write(render_text(verdict, stats, winner))
    return EXIT[verdict.outcome]


def _cmd_decompose(args):
    spec, prop = _load(args)
    comps = ordered_components(spec, prop)
    print("components: %d" % len(comps))
    for c in comps:
        print("%s" % c.name)
        print("  variables: %s" % ", ".join(c.variables))
        print("  actions: %s" % ", ".join(a.name for a in c.actions))
    return 0


def _cmd_order(args):
    spec, prop = _load(args)
    comps = decompose(spec, prop)
    dfo = data_flow_order(comps)
    name = lambda i: comps[i - 1].name
    for level, e in enumerate(dfo.e_sets):
        print("E%d: %s" % (level, ", ".join(sorted(name(i) for i in e))))
    print("edges: %s" % "; ".join(
        "%s -> %s" % (name(i), name(j)) for i, j in sorted(dfo.f_edges)))
    perm = total_order(comps, spec)
    print("total order: %s" % ", ".join(name(i) for i in perm))
    ordered = [comps[i - 1] for i in perm]
    for kind in KINDS:
        f = make_strategy(kind, len(ordered))
        print("map %s:" % kind)
        for line in render_map(f, ordered).splitlines():
            print("  " + line)
    return 0


def main(argv=None):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "decompose":
            return _cmd_decompose(args)
        return _cmd_order(args)
    except (SpecError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
