"""Spans around the boundary functions of each ``creutz`` layer.

While a ``Tracer`` is installed, each function named in ``TRACED`` is
replaced, in every ``creutz`` namespace that refers to it, by a wrapper
that records one span per call: id, parent id, name
(``layer.function``), start and end.  Spans stay in memory; ``write``
puts them out as JSON lines.  Nothing under ``src/`` changes: the
wrappers live here and are removed when the tracer is uninstalled.

The echo kernel's span also records the tracemalloc peak of its call.
The traced run installs a tracer in each step's own process (see
child.py) and reads the span files back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from contextlib import contextmanager
from typing import NamedTuple

# The public functions the CLI commands call, per layer, and the ones
# inside them that the per-layer metrics split out.  Helpers called once
# per mode or per table cell (band_energies, format_float) are left out:
# at about 2 us per span, 800000 format_float spans would double the
# render time.  A name a later version no longer defines is skipped and
# its metrics read 0.
TRACED = {
    "cli": ("main", "build_config", "run"),
    "model": ("allowed_modes", "mode_data", "ground_state_energy"),
    "quench": ("loschmidt_echo", "mode_arrays"),
    "dqpt": ("dqpt_possible", "solve_critical_modes", "predict_dqpt_times",
             "detect_cusps", "finite_size_dqpt_gate"),
    "revival": ("predict_revival", "detect_revivals"),
    "thermo": ("scan_theta2", "work_stats"),
    "serialize": ("write_table", "render_csv", "render_json"),
}
MEMORY_SPANS = ("quench.loschmidt_echo",)


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    peak_alloc_mb: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        memory = name in MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            peak = None
            if memory:
                tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if memory:
                    peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                    tracemalloc.stop()
                stack.pop()
                spans[span_id] = Span(span_id, parent, name, start, end, peak)

        return traced

    @contextmanager
    def installed(self):
        """Wrap the ``TRACED`` functions for the duration of the block."""
        wrappers = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"creutz.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        patched = []
        for module_name, module in list(sys.modules.items()):
            if module_name != "creutz" and not module_name.startswith("creutz."):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    patched.append((namespace, key, value))
                    namespace[key] = hit[1]
        try:
            yield self
        finally:
            for namespace, key, value in reversed(patched):
                namespace[key] = value

    def write(self, path, origin: float) -> None:
        """Write the spans as JSON lines, times in seconds since ``origin``."""
        with open(path, "w") as handle:
            for span in self.spans:
                record = span._asdict()
                record["start"] -= origin
                record["end"] -= origin
                handle.write(json.dumps(record) + "\n")


def trace_file(out: str) -> str:
    """Where the traced run of a step writes its spans, next to its output."""
    return out + ".trace.jsonl"


def read(path) -> list:
    """Spans written by ``Tracer.write``; none if the file is missing."""
    try:
        with open(path) as handle:
            return [Span(**json.loads(line)) for line in handle]
    except FileNotFoundError:
        return []


def merge(parts) -> list:
    """One list from the span lists of several processes, with ids kept unique."""
    merged: list = []
    for part in parts:
        offset = len(merged)
        merged += [span._replace(id=span.id + offset,
                                 parent=None if span.parent is None else span.parent + offset)
                   for span in part]
    return merged


class SpanIndex:
    """Sums over a list of spans: total, self and per-layer times, call counts."""

    def __init__(self, spans) -> None:
        self.spans = spans
        self._children: dict[int, float] = {}
        by_id = {span.id: span for span in spans}
        for span in spans:
            if span.parent in by_id:
                self._children[span.parent] = self._children.get(span.parent, 0.0) + span.duration
        self._by_id = by_id

    def total(self, name: str) -> float:
        return sum(span.duration for span in self.spans if span.name == name)

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def self_time(self, name: str) -> float:
        """Time inside ``name`` not covered by its child spans."""
        return sum(span.duration - self._children.get(span.id, 0.0)
                   for span in self.spans if span.name == name)

    def layer_time(self, layer: str) -> float:
        """Time inside ``layer``, counting nested calls within the layer once."""
        prefix = layer + "."
        total = 0.0
        for span in self.spans:
            parent = self._by_id.get(span.parent)
            if span.name.startswith(prefix) and not (parent and parent.name.startswith(prefix)):
                total += span.duration
        return total
