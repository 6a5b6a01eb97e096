"""Check lists of the benchmark workloads and the seeded spec text they run.

A check is one (model, size, property, strategy) query with its known
answer.  The seed permutes the check order and renames the string
constants of each model's CONFIG set (``"rm1"`` becomes a random token),
so the program only ever sees generated text that no earlier run used.
Renaming permutes the order of parameter values but cannot change how
many states are reachable, so verdicts and every stage count stay put.

This module does not import ``recomp``: set-up time includes that import.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass

HOLDS = "holds"
VIOLATED = "violated"

# The corpus contract: these invariants hold at every instance size, and
# NoPrepares (the transaction manager never records a prepare) is false.
KNOWN_ANSWERS = {
    "Consistent": HOLDS,
    "Mutex": HOLDS,
    "Agreement": HOLDS,
    "NoPrepares": VIOLATED,
}

PORTFOLIO = ("S1", "S2", "S3", "S4")
PORTFOLIO_WORKERS = 2  # one per core of the 2-core reference machine

# The tuned map for two-phase commit: components 1..4 in total order go
# to groups P, 1, 2, 1.  Component 1 always belongs to the property
# group P, so only the other three are listed.
TUNED = "tuned"
TUNED_GROUPS = ((2, 1), (3, 2), (4, 1))


@dataclass(frozen=True)
class Check:
    model: str  # a key of recomp.corpus.ALL
    size: int
    prop: str
    strategy: str  # S1..S4, TUNED, or "portfolio"
    minimize: str = "strong"
    expected: str = None  # defaults to the known answer for `prop`

    def __post_init__(self):
        if self.expected is None:
            object.__setattr__(self, "expected", KNOWN_ANSWERS[self.prop])

    @property
    def spec_key(self):
        return "%s%d" % (self.model, self.size)

    @property
    def label(self):
        return "%s/%s/%s" % (self.spec_key, self.prop, self.strategy)


def _portfolio(model, size, prop):
    return Check(model, size, prop, "portfolio")


WORKLOADS = {
    # Compositional path: two short-circuited holds and a full fold that
    # ends in a witness; time is compose, enumeration and minimization.
    # twophase(6) has the same group structure as twophase(7) at a
    # quarter of the time (0.7 to 1.5 s a check): a run of 25 s takes the
    # median of seven passes, where two would move with one slow stretch
    # of the host.
    "compose": (
        Check("twophase", 6, "Consistent", "S1"),
        Check("twophase", 6, "Consistent", "S2"),
        Check("twophase", 6, "NoPrepares", "S1"),
    ),
    # Whole-system streaming search: no LTS code runs, so this is the
    # no-change control for lts and engine work.  Checks of about 1 s,
    # 0.4 s and 10 ms give a run of 25 s a dozen passes to take the
    # median of.  lockserv(7) rather than lockserv(5), which decides in
    # about 50 ms: the median check is lockserv's, and 50 ms is too short
    # a timing to repeat between runs.
    "monolithic": (
        Check("twophase", 5, "Consistent", "S4"),
        Check("lockserv", 7, "Mutex", "S4"),
        Check("twophase", 7, "NoPrepares", "S4"),
    ),
    # Desk-scale configuration scaled from ten resource managers to
    # seven: hiding plus observational saturation in minimize.  At
    # seven a check takes 3.5 s, so a run of 25 s takes the median of six
    # passes.
    "observational": (
        Check("twophase", 7, "Consistent", TUNED, minimize="observational"),
    ),
    # Many short portfolio races, where process start and cooperative
    # cancellation set the time to verdict.  lockserv(3) makes the number
    # of checks odd and is the middle one by time, about 80 ms against
    # 50 ms and 100 ms for its neighbours, so check_s.p50 is the median
    # of one check's samples.  With an even number, or with two checks
    # of equal time in the middle, it fell in the tail of two checks'
    # samples and moved from run to run.
    "portfolio": (
        _portfolio("tpcounter", 3, "Consistent"),
        _portfolio("tpcounter", 3, "NoPrepares"),
        _portfolio("lockserv", 3, "Mutex"),
        _portfolio("lockserv", 4, "Mutex"),
        _portfolio("twophase", 5, "Consistent"),
        _portfolio("twophase", 5, "NoPrepares"),
        _portfolio("consensus", 3, "Agreement"),
    ),
}

# The portfolio workload repeats its check list until at least this many
# checks ran, so check_s.p90 has ten samples beyond it.
MIN_CHECKS = {"portfolio": 100}

_CONFIG_SET = re.compile(r"^CONFIG\n\s+\w+\s*=\s*\{([^}]*)\}", re.M)
_STRING = re.compile(r'"([^"\n]*)"')


def rename_constants(text, rng):
    """Replace every string constant of the CONFIG set with a fresh
    seeded token that collides with no literal of the text."""
    m = _CONFIG_SET.search(text)
    if m is None:
        raise ValueError("spec text has no CONFIG set")
    names = _STRING.findall(m.group(1))
    taken = set(_STRING.findall(text))
    tokens = []
    while len(tokens) < len(names):
        tok = "".join(rng.choice(string.ascii_lowercase) for _ in range(6))
        if tok not in taken:
            taken.add(tok)
            tokens.append(tok)
    mapping = dict(zip(names, tokens))
    return _STRING.sub(
        lambda s: '"%s"' % mapping.get(s.group(1), s.group(1)), text)


def spec_texts(checks, generators, rng):
    """Seeded source text for every distinct model instance of `checks`;
    `generators` maps model names to recomp.corpus generator functions."""
    out = {}
    for c in checks:
        if c.spec_key not in out:
            out[c.spec_key] = rename_constants(generators[c.model](c.size),
                                               rng)
    return out

