"""recomp benchmark: verdict-checked time to verdict.

    python3 perfbench/run.py --workload compose --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and counterexamples are replayed with ``tests/oracle.py``.

One client process runs the workload's check list in a closed loop,
pass after pass, for about `--seconds` (the portfolio workload also runs
at least 100 checks).  The only parallelism is the portfolio's
own worker processes.  After the timed passes every verdict is compared
with the known answer and every counterexample is replayed with the
independent oracle; any mismatch makes the run fail with exit code 1.

End-to-end timings are reported in reference seconds: each check and
each set-up is scaled by the speed of a fixed loop timed just before and
just after it (see `reference_s`), so that the shared host's drifting
CPU speed cancels out.  The raw wall times are printed above the result.

`--trace 0` prints the end-to-end metrics, measured with tracing off.
`--trace 1` alternates untraced and traced passes and prints per-layer
metrics from the traced ones (see tracer.py); spans are written to
``perfbench/out/``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import os
import random
import resource
import statistics
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass

import workloads as wl
from tracer import LaunchCounter, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ORACLE = os.path.join(ROOT, "tests", "oracle.py")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 15
# The speed reference: a loop of small-int arithmetic, REFERENCE_ROUNDS
# rounds long, that takes about REFERENCE_S on the 2-vCPU reference
# machine.  A timing t measured while the loop takes r seconds is
# reported as t * REFERENCE_S / r.  The loop allocates nothing the
# garbage collector tracks and calls nothing in recomp, so no change to
# the program can move it.
REFERENCE_ROUNDS = 250_000
REFERENCE_S = 0.045
# Every check of a run must reach its verdict within this many seconds
# of the run's start; past it the engine is cancelled and the check
# counts as undecided.
TIME_LIMIT_S = 150

END_TO_END = {
    "verdict_s": "s",
    "check_s.p50": "s",
    "check_s.p90": "s",
    "max_states": "states",
    "peak_rss_mb": "MB",
    "decided_ratio": "ratio",
    "correct_ratio": "ratio",
    "setup_s": "s",
}

PER_LAYER = {
    "semantics.enumerate_s": "s",
    "semantics.reach_s": "s",
    "semantics.states": "states",
    "semantics.states_per_s": "states/s",
    "lts.compose_s": "s",
    "lts.compose_states": "states",
    "lts.minimize_s": "s",
    "lts.minimize_in_states": "states",
    "lts.minimize_ratio": "ratio",
    "lts.pi_reachable_s": "s",
    "lts.pi_reachable_calls": "count",
    "engine.self_s": "s",
    "engine.k_over_m": "ratio",
    "engine.portfolio_overhead_s": "s",
    "engine.winner.S1": "count",
    "engine.winner.S2": "count",
    "engine.winner.S3": "count",
    "engine.winner.S4": "count",
    "engine.strategies_launched": "count",
    "decompose.decompose_s": "s",
    "order.total_order_s": "s",
    "order.make_strategy_s": "s",
    "recompose.static_reduce_s": "s",
    "recompose.build_groups_s": "s",
    "parser.parse_s": "s",
    "trace.verdict_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


class ProgramMissing(Exception):
    """The checkout lacks the package or the oracle."""


def forget_recomp():
    """Drop recomp from sys.modules, so the next import runs it afresh."""
    for name in list(sys.modules):
        if name == "recomp" or name.startswith("recomp."):
            del sys.modules[name]


class Program:
    """The recomp modules the benchmark calls, freshly imported from this
    checkout."""

    def __init__(self):
        if not os.path.isfile(os.path.join(SRC, "recomp", "__init__.py")):
            raise ProgramMissing("no recomp package under %s" % SRC)
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        forget_recomp()
        self.recomp = importlib.import_module("recomp")
        self.engine = importlib.import_module("recomp.engine")
        self.corpus = importlib.import_module("recomp.corpus")
        self.recompose = importlib.import_module("recomp.recompose")

    def load_oracle(self):
        """tests/oracle.py, bound to this import of recomp."""
        if not os.path.isfile(ORACLE):
            raise ProgramMissing("no oracle at %s" % ORACLE)
        spec = importlib.util.spec_from_file_location("oracle", ORACLE)
        oracle = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(oracle)
        return oracle

    def strategy(self, check):
        if check.strategy != wl.TUNED:
            return check.strategy
        f = self.recompose.make_map(((1, self.recompose.P),)
                                    + wl.TUNED_GROUPS)
        return self.recomp.Strategy("custom", custom=f)


def set_up(checks, seed):
    """Import recomp, generate the seeded spec text and parse it.

    Returns (program, specs by key, set-up seconds, parse seconds)."""
    t0 = time.perf_counter()
    program = Program()
    texts = wl.spec_texts(checks, program.corpus.ALL, random.Random(seed))
    t1 = time.perf_counter()
    specs = {key: program.recomp.parse(text) for key, text in texts.items()}
    t2 = time.perf_counter()
    return program, specs, t2 - t0, t2 - t1


def reference_s():
    """Seconds the speed-reference loop takes now."""
    x = 1
    t0 = time.perf_counter()
    for _ in range(REFERENCE_ROUNDS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return time.perf_counter() - t0


def scale(before, after):
    """Factor from wall seconds to reference seconds for a timing that
    lies between two reference-loop times."""
    return 2 * REFERENCE_S / (before + after)


class Deadline:
    """The `cancel=` argument of in-process checks: reads as set once the
    run's time limit has passed.  The engine polls `is_set()` every few
    thousand states, so the clock itself is the timer."""

    def __init__(self, seconds):
        self.at = time.monotonic() + seconds

    def is_set(self):
        return time.monotonic() >= self.at

    def remaining(self):
        return self.at - time.monotonic()


@dataclass
class Result:
    check: wl.Check
    verdict: object
    stats: object
    winner: object  # winning Strategy of a portfolio check, else None
    seconds: float  # wall
    scale: float = 1.0  # wall to reference seconds

    @property
    def ref_seconds(self):
        return self.seconds * self.scale


def run_check(program, spec, check, deadline, tracer=None):
    prop = spec.property(check.prop)
    winner = None
    if check.strategy == "portfolio":
        call = program.recomp.run_portfolio
        if tracer is not None:
            call = tracer.wrap("run_portfolio", call)
        t0 = time.perf_counter()
        verdict, stats, winner = call(
            spec, prop, list(wl.PORTFOLIO), workers=wl.PORTFOLIO_WORKERS,
            timeout=max(deadline.remaining(), 0.001))
    else:
        call = program.recomp.recomp_verify
        if tracer is not None:
            call = tracer.wrap("recomp_verify", call)
        t0 = time.perf_counter()
        verdict, stats = call(spec, prop, program.strategy(check),
                              minimize_mode=check.minimize, cancel=deadline)
    return Result(check, verdict, stats, winner, time.perf_counter() - t0)


@dataclass
class Pass:
    wall: float  # the whole pass, speed-reference loops included
    results: list
    tracer: Tracer = None
    launches: LaunchCounter = None

    @property
    def seconds(self):
        """Wall time from first check submitted to last verdict returned,
        less the reference loops between checks."""
        return sum(r.seconds for r in self.results)

    @property
    def ref_seconds(self):
        return sum(r.ref_seconds for r in self.results)


def run_pass(program, specs, order, deadline, traced, first_check_id=0):
    """Run the check list once, back to back, timing the speed-reference
    loop before the first check and after every check; with `traced`,
    record spans."""
    tracer = launches = None
    hooks = ExitStack()
    if traced:
        tracer = Tracer()
        launches = LaunchCounter(program.engine.multiprocessing)
        hooks.enter_context(launches.installed(program.engine))
        # Forked portfolio workers would inherit the wrappers without
        # reporting their spans, so there only run_portfolio is traced.
        if all(c.strategy != "portfolio" for c in order):
            hooks.enter_context(tracer.installed(program.engine))
    results = []
    with hooks:
        t0 = time.perf_counter()
        refs = [reference_s()]
        for i, c in enumerate(order):
            if tracer is not None:
                tracer.check = first_check_id + i
            results.append(run_check(program, specs[c.spec_key], c,
                                     deadline, tracer))
            refs.append(reference_s())
        wall = time.perf_counter() - t0
    # A pass-wide factor follows the host's fast swings less closely:
    # on portfolio it left two to four times the spread.
    for r, before, after in zip(results, refs, refs[1:]):
        r.scale = scale(before, after)
    return Pass(wall, results, tracer, launches)


def failure(oracle, specs, result, replayed):
    """Why `result` fails the gate, or None if it passes."""
    v, c = result.verdict, result.check
    if not v.conclusive():
        return "%s: undecided (%s)" % (c.label, v.reason)
    if v.outcome != c.expected:
        return "%s: %s, expected %s" % (c.label, v.outcome, c.expected)
    if v.outcome == wl.VIOLATED:
        key = (c.spec_key, c.prop, v.witness)
        if key not in replayed:
            replayed[key] = replays(oracle, specs[c.spec_key], c.prop,
                                    v.witness)
        if not replayed[key]:
            return "%s: counterexample does not replay" % c.label
    return None


def replays(oracle, spec, prop_name, witness):
    """Does the action trace run from the initial state to a state that
    violates the property, under the independent oracle?"""
    if witness is None:
        return False
    prop = spec.property(prop_name)
    trace = [(action, oracle._conv(arg)) for action, arg in witness]
    try:
        end = oracle.oracle_replay(spec, trace)
    except AssertionError:  # some step is not enabled
        return False
    return not oracle.o_eval(prop.body, {**oracle._consts(spec), **dict(end)})


def quantile(samples, q):
    """The q-quantile (0 < q < 1, in steps of 0.001) of the samples."""
    if len(samples) == 1:
        return samples[0]
    cuts = statistics.quantiles(samples, n=1000, method="inclusive")
    return cuts[round(q * 1000) - 1]


def describe(name, samples):
    """Median plus the highest percentile with ten samples beyond it."""
    n = len(samples)
    line = "# %s: median %.4f s over %d samples" % (
        name, statistics.median(samples), n)
    for q in (0.999, 0.99, 0.9):
        if n * (1 - q) >= 10:
            return line + ", p%g %.4f s" % (100 * q, quantile(samples, q))
    return line + "; no percentile has ten samples beyond it"


def peak_rss_mb(with_children):
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def end_to_end(passes, setup_times, portfolio, n_failed):
    """End-to-end values, timings in reference seconds; `n_failed` checks
    failed the gate."""
    results = [r for p in passes for r in p.results]
    checks = [r.ref_seconds for r in results]
    n = len(results)
    return {
        "verdict_s": statistics.median(p.ref_seconds for p in passes),
        "check_s.p50": quantile(checks, 0.5),
        "check_s.p90": quantile(checks, 0.9),
        "max_states": statistics.median(
            max(r.stats.max_states for r in p.results) for p in passes),
        "peak_rss_mb": peak_rss_mb(portfolio),
        "decided_ratio": sum(r.verdict.conclusive() for r in results) / n,
        "correct_ratio": (n - n_failed) / n,
        "setup_s": statistics.median(setup_times),
    }


def layer_metrics(p):
    """Per-layer values of one traced pass."""
    st = p.tracer.self_times()
    stats = [r.stats for r in p.results]
    stages = [s for x in stats for s in x.stages]
    generated = sum(s.generated for s in stages)
    generator_s = st["to_lts"] + st["err_lts"] + st["err_reach"]
    minimized = [s for s in stages if s.minimized is not None]
    minimize_in = sum(s.generated for s in minimized)
    groups = sum(x.m for x in stats)
    winners = [r.winner.kind for r in p.results if r.winner is not None]
    out = {
        "semantics.enumerate_s": st["to_lts"] + st["err_lts"],
        "semantics.reach_s": st["err_reach"],
        "semantics.states": generated,
        "semantics.states_per_s": generated / generator_s if generator_s else 0.0,
        "lts.compose_s": st["compose"],
        "lts.compose_states": sum(s.composed for s in stages
                                  if s.composed is not None),
        "lts.minimize_s": st["minimize"],
        "lts.minimize_in_states": minimize_in,
        "lts.minimize_ratio": (sum(s.minimized for s in minimized)
                               / minimize_in if minimize_in else 0.0),
        "lts.pi_reachable_s": st["pi_reachable"],
        "lts.pi_reachable_calls": p.tracer.calls("pi_reachable"),
        "engine.self_s": st["comp_verify"] + st["recomp_verify"],
        "engine.k_over_m": sum(x.k for x in stats) / groups if groups else 0.0,
        "engine.portfolio_overhead_s": sum(
            r.seconds - r.stats.elapsed_ms / 1000.0
            for r in p.results if r.winner is not None),
        "engine.strategies_launched": p.launches.launched,
        "decompose.decompose_s": st["decompose"],
        "order.total_order_s": st["total_order"],
        "order.make_strategy_s": st["make_strategy"],
        "recompose.static_reduce_s": st["static_reduce"],
        "recompose.build_groups_s": st["build_groups"],
        "trace.verdict_s": p.seconds,
        "trace.unattributed_s": p.seconds - sum(st.values()),
    }
    for kind in wl.PORTFOLIO:
        out["engine.winner." + kind] = winners.count(kind)
    return out


def per_layer(passes, parse_times):
    traced = [p for p in passes if p.tracer is not None]
    untraced = [p for p in passes if p.tracer is None]
    per_pass = [layer_metrics(p) for p in traced]
    out = {name: statistics.median(m[name] for m in per_pass)
           for name in per_pass[0]}
    out["parser.parse_s"] = statistics.median(parse_times)
    # In reference seconds: the host's drift between passes would
    # swamp the overhead in wall seconds.
    out["trace.overhead_s"] = (
        statistics.median(p.ref_seconds for p in traced)
        - statistics.median(p.ref_seconds for p in untraced))
    return out


def run_workload(checks, seed, seconds, trace, min_checks=0):
    """Set up, run passes for about `seconds`, check every verdict.

    Returns the result object, the passes and the gate's failures."""
    # Before each set-up the previous one's modules are freed (a larger
    # parent would also make every portfolio fork slower) and the rest of
    # the heap is frozen.  Otherwise the collections an import triggers
    # walk this process's own objects, which a fresh interpreter does not
    # have, and set-up times jump between two levels.
    # Set-up times are in reference seconds, parse times in wall seconds.
    setup_times, parse_times = [], []
    for _ in range(SETUP_REPEATS):
        program = specs = None
        forget_recomp()
        gc.collect()
        gc.freeze()
        before = reference_s()
        program, specs, setup_s, parse_s = set_up(checks, seed)
        setup_times.append(setup_s * scale(before, reference_s()))
        parse_times.append(parse_s)
        gc.unfreeze()
    oracle = program.load_oracle()
    rng = random.Random("order-%d" % seed)
    deadline = Deadline(TIME_LIMIT_S)

    passes = []
    ran = 0
    start = time.perf_counter()
    while not deadline.is_set() and (
            len(passes) < (2 if trace else 1) or ran < min_checks
            or _another_pass_fits(passes, time.perf_counter() - start,
                                  seconds)):
        order = list(checks)
        rng.shuffle(order)
        traced = trace and len(passes) % 2 == 1
        p = run_pass(program, specs, order, deadline, traced,
                     first_check_id=ran)
        passes.append(p)
        ran += len(p.results)

    replayed = {}
    results = [r for p in passes for r in p.results]
    failures = [f for f in (failure(oracle, specs, r, replayed)
                            for r in results) if f]
    portfolio = any(c.strategy == "portfolio" for c in checks)
    if trace:
        metrics, units = per_layer(passes, parse_times), PER_LAYER
    else:
        metrics, units = end_to_end(passes, setup_times, portfolio,
                                    len(failures)), END_TO_END
    result = {
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, passes, failures


def _another_pass_fits(passes, elapsed, seconds):
    """Start another pass while it would end nearer to `seconds` than
    stopping now, so a run measures about `seconds` whatever the pass
    length."""
    mean = sum(p.wall for p in passes) / len(passes)
    return elapsed + mean / 2 < seconds


def write_spans(passes, workload, seed):
    records = []
    for i, p in enumerate(passes):
        if p.tracer is not None:
            records += p.tracer.records(pass_index=i)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "spans-%s-seed%d.json" % (workload, seed))
    with open(path, "w") as fh:
        json.dump(records, fh)
    return path


def emit(result, passes, failures):
    """Print failures, timing summaries and metrics; the JSON result is
    the last line."""
    for f in failures:
        print("# FAILED %s" % f)
    untraced = [p for p in passes if p.tracer is None]
    results = [r for p in untraced for r in p.results]
    print("# reference seconds (wall scaled by the speed reference):")
    print(describe("verdict_s", [p.ref_seconds for p in untraced]))
    print(describe("check_s", [r.ref_seconds for r in results]))
    print("# wall seconds:")
    print(describe("verdict_s", [p.seconds for p in untraced]))
    print(describe("check_s", [r.seconds for r in results]))
    print(describe("reference loop", [REFERENCE_S / r.scale
                                      for r in results]))
    by_check = {}
    for r in results:
        by_check.setdefault(r.check.label, []).append(r.ref_seconds)
    print("# reference seconds by check:")
    for label, samples in sorted(by_check.items()):
        print(describe("check %s" % label, samples))
    for name, m in result["metrics"].items():
        print("%-32s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        result, passes, failures = run_workload(
            wl.WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), wl.MIN_CHECKS.get(args.workload, 0))
    except ProgramMissing as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2

    if args.trace:
        print("# spans: %s" % write_spans(passes, args.workload, args.seed))
    emit(result, passes, failures)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
