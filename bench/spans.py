"""Span recording from outside the program.

``SpanRecorder.instrument`` replaces each public facpca function bound in
the ``cli``, ``reporting`` and ``pipeline`` namespaces with a wrapper that
records a span, so the program itself is unchanged.  Spans stay in memory
until the run ends; ``restore`` puts every original function back.
"""

from __future__ import annotations

import inspect
import itertools
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

CALLER_MODULES = ("facpca.cli", "facpca.reporting", "facpca.pipeline")
# Per-cell formatters run once per written cell; a span around each would
# cost more than the work it measures, so their time stays in the caller.
UNWRAPPED = frozenset({"format_number", "format_pct"})


def _read_data_counts(result) -> dict:
    data, dropped = result
    return {"cells": (data.n_observations + dropped) * data.n_variables, "rows_dropped": dropped}


# counts taken from a layer's return value, at the same boundary as its span
COUNTERS = {
    "reporting.read_data_csv": _read_data_counts,
    "eigen.eigen_symmetric": lambda eig: {"n": eig.size},
    "varimax.varimax": lambda rot: {"sweeps": rot.sweeps_used, "converged": int(rot.converged)},
}


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    op_id: int | None
    name: str
    start: float
    end: float
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans for the calls made through the wrapped attributes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span = Span(span_id, parent, self.op_id, name, start, end)
                self.spans.append(span)
            if counter is not None:
                span.counts = counter(result)
            return result

        traced.__wrapped__ = original
        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def instrument(self, modules) -> None:
        """Wrap every public facpca function bound in the given modules."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and attr not in UNWRAPPED
                    and value.__module__.startswith("facpca.")
                ):
                    layer = value.__module__.removeprefix("facpca.")
                    self.wrap(module, attr, f"{layer}.{value.__name__}")

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in sorted(self.spans, key=lambda s: s.span_id):
                f.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Calls run on one thread, so siblings never overlap and the children's
    durations add up to the part of the parent they cover.
    """
    own = {span.span_id: span.duration for span in spans}
    for span in spans:
        if span.parent_id is not None and span.parent_id in own:
            own[span.parent_id] -= span.duration
    return own
