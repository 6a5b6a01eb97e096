"""Outside-in span tracing of the verification engine.

`Tracer.installed(engine)` replaces, for the duration of a `with` block,
the functions that `recomp.engine` imported from the other layers (and
`comp_verify`, which `recomp_verify` looks up in the same namespace) by
wrappers that record one span per call.  Nothing under ``src/`` changes:
the engine resolves those names through its module globals at call
time, so patching the globals is enough.

A span is (name, start, end, parent span id, check id).  Spans live in
memory until the run writes them out.  The process is single-threaded
while tracing, so child spans nest inside their parent without overlap
and a span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

# Names in recomp.engine's namespace, wrapped in a traced pass.
TRACED = (
    "decompose", "total_order", "make_strategy",
    "static_reduce", "build_groups",
    "err_lts", "to_lts", "err_reach",
    "minimize", "compose", "pi_reachable", "comp_verify",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent id, check id]
        self._stack = []
        self.check = None  # id stamped on every span opened from now on

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.check]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
        return traced

    @contextmanager
    def installed(self, engine):
        saved = {name: getattr(engine, name) for name in TRACED}
        try:
            for name, fn in saved.items():
                setattr(engine, name, self.wrap(name, fn))
            yield self
        finally:
            for name, fn in saved.items():
                setattr(engine, name, fn)

    def self_times(self):
        """Name -> total self time in seconds over all spans."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[sid]
        return out

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def records(self, **extra):
        """Spans as dicts, for writing out when the run ends."""
        return [dict(extra, id=sid, name=name, start=start, end=end,
                     parent=parent, check=check)
                for sid, (name, start, end, parent, check)
                in enumerate(self.spans)]


class LaunchCounter:
    """Stands in for the `multiprocessing` module inside recomp.engine and
    counts the worker processes `run_portfolio` creates."""

    def __init__(self, multiprocessing):
        self._mp = multiprocessing
        self.launched = 0

    def get_context(self, method=None):
        return _CountingContext(self, self._mp.get_context(method))

    @contextmanager
    def installed(self, engine):
        engine.multiprocessing = self
        try:
            yield self
        finally:
            engine.multiprocessing = self._mp


class _CountingContext:
    def __init__(self, counter, ctx):
        self._counter = counter
        self._ctx = ctx

    def Process(self, *args, **kwargs):
        self._counter.launched += 1
        return self._ctx.Process(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._ctx, name)
