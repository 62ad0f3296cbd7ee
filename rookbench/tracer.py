"""Per-layer trace of rooklab, taken from outside the package.

Every public function defined in one of the layer modules is wrapped, and
the wrapper is bound in place of the original in every rooklab module that
binds it: the modules import names with `from .core import ...`, so
patching only the defining module would miss calls such as
`constructions.adjacent`.  `numpy.linalg.eigvalsh`, which in rooklab only
`spectral` calls, is wrapped as `spectral.eigvalsh`.

What a wrapper records:
- every function: its call count;
- generator functions: items yielded, with each resumption timed;
- hot leaves (HOT): the count alone, so their time stays in the caller's
  self time instead of the trace's own cost swamping it;
- every other function: its self time, the call's duration minus the
  duration of the traced calls it makes;
- a span (name, kind, start, end, parent span, job) for each job and each
  call from one layer into another.  Spans stay in memory until the pass
  ends and are then written out by `write_spans`.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "cli",
    "report",
    "core",
    "constructions",
    "metrics",
    "spectral",
    "oracles",
    "automorphisms",
    "hardness",
)
HOT = frozenset(
    {"core.adjacent", "core.format_vertex", "core.validate_vertex", "constructions.residue_key"}
)


class _Stat:
    __slots__ = ("calls", "items", "self_s")

    def __init__(self) -> None:
        self.calls = self.items = 0
        self.self_s = 0.0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        # frames of the timed calls in progress: [layer, time of traced children]
        self.stack: list[list] = []
        self.spans: list[tuple | None] = []
        self.span = -1  # innermost open span, -1 for none
        self.job_id = -1
        self.job_counts: list[dict[str, int]] = []

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"rooklab.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == module.__name__:
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", layer, obj)
        for name, module in list(sys.modules.items()):
            if name == "rooklab" or name.startswith("rooklab."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(module, attr, wrappers[obj])
        linalg = modules["spectral"].np.linalg
        linalg.eigvalsh = self.wrap("spectral.eigvalsh", "spectral", linalg.eigvalsh)

    def wrap(self, name: str, layer: str, fn):
        stat = self.stats[name] = _Stat()
        if name in HOT:

            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)

            return counted
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, layer, fn, stat)
        clock = time.perf_counter
        stack = self.stack

        def timed(*args, **kwargs):
            span = self._open_span(layer)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat.calls += 1
                stat.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if span is not None:
                    self._close_span(span, name, "call", start, end)

        return timed

    def _wrap_generator(self, name, layer, fn, stat):
        clock = time.perf_counter
        stack = self.stack

        def resumed(inner, span):
            first = last = None
            try:
                while True:
                    frame = [layer, 0.0]
                    stack.append(frame)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        last = clock()
                        first = start if first is None else first
                        stack.pop()
                        elapsed = last - start
                        stat.self_s += elapsed - frame[1]
                        if stack:
                            stack[-1][1] += elapsed
                    stat.items += 1
                    yield item
            finally:
                inner.close()
                if span is not None and first is not None:
                    # spans the first resumption to the last; the consumer's
                    # work between items falls inside it
                    self._close_span(span, name, "generator", first, last)

        def generator(*args, **kwargs):
            stat.calls += 1
            return resumed(fn(*args, **kwargs), self._open_span(layer, current=False))

        return generator

    # -- spans ------------------------------------------------------------------

    def _open_span(self, layer: str, current: bool = True):
        """Reserve a span for a call entering `layer` from another layer.

        A generator's span is not made current: its lifetime interleaves
        with its consumer's, so it parents nothing."""
        if self.stack and self.stack[-1][0] == layer:
            return None
        index, parent = len(self.spans), self.span
        self.spans.append(None)
        if current:
            self.span = index
        return index, parent

    def _close_span(self, span, name, kind, start, end) -> None:
        index, parent = span
        self.spans[index] = (name, kind, start, end, parent, self.job_id)
        if self.span == index:
            self.span = parent

    @contextlib.contextmanager
    def job(self, job_id: int):
        """One job: a root span, with the counts it made kept separately."""
        before = self.counts()
        self.job_id = job_id
        span = self._open_span("job")
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close_span(span, "job", "job", start, time.perf_counter())
            made = {k: v - before.get(k, 0) for k, v in self.counts().items()}
            self.job_counts.append({k: v for k, v in made.items() if v})

    # -- results ----------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            if stat.items:
                out[f"{name}.items"] = stat.items
        return out

    def summary(self) -> dict:
        """Counts and self seconds per function, and counts per job."""
        return {
            "counts": self.counts(),
            "self_s": {name: stat.self_s for name, stat in self.stats.items() if name not in HOT},
            "job_counts": self.job_counts,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                if span is not None:
                    name, kind, start, end, parent, job = span
                    out.write(
                        json.dumps(
                            {"id": index, "name": name, "kind": kind, "start": start,
                             "end": end, "parent": parent, "job": job}
                        )
                        + "\n"
                    )
