"""Compositional explicit-state safety checking for a small
TLA-style specification language: decompose a spec by variable
slicing, regroup the slices under a recomposition strategy, and verify
the groups incrementally against an error automaton."""

from .decompose import decompose
from .engine import (Verdict, StatsReport, comp_verify, recomp_verify,
                     run_portfolio)
from .lts import Lts, compose, minimize, pi_reachable
from .order import Strategy, data_flow_order, make_strategy, total_order
from .parser import parse, pretty
from .recompose import RecompositionMap, compose_specs, static_reduce
from .semantics import err_lts, to_lts
from .syntax import SpecAst, SpecError, free_vars

__all__ = [
    "Lts", "RecompositionMap", "SpecAst", "SpecError", "StatsReport",
    "Strategy", "Verdict", "comp_verify", "compose", "compose_specs",
    "data_flow_order", "decompose", "err_lts", "free_vars", "make_strategy",
    "minimize", "parse", "pi_reachable", "pretty", "recomp_verify",
    "run_portfolio", "static_reduce", "to_lts", "total_order",
]
