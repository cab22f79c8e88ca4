"""Span tracer that wraps lqrnewton's public entry points from outside.

The library calls its own functions through module globals (for example
``derivatives._pieces`` calls ``derivatives.solve_value``, not
``lqr.solve_value``), so wrapping one attribute is not enough: every
module-global name in every ``lqrnewton`` module that is bound to a traced
function is rebound to the same wrapper, and restored on exit.

Each wrapper records one span per call: name, start, end, parent span and
task id. Spans stay in memory; aggregation happens after the run.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

# (module, function) pairs whose calls become spans.
TRACED = (
    ("lqr", "is_gamma_stabilizing"),
    ("lqr", "solve_value"),
    ("lqr", "solve_sigma"),
    ("lqr", "performance"),
    ("lqr", "optimal_gain"),
    ("derivatives", "exact_hessian"),
    ("optimize", "search_direction"),
    ("optimize", "run"),
    ("experiment", "write_atomic"),
    ("benchmarks", "make_shear_building"),
    ("benchmarks", "initial_gain"),
)


def _run_attrs(args, kwargs, rec) -> dict:
    taken = [s for s in rec.steps if s.alpha_used > 0.0]
    return {"iterations": rec.iterations,
            "gains": rec.gains,
            "steps_taken": len(taken),
            "trials": sum(s.backtracks + 1 for s in taken),
            "backtracks": sum(s.backtracks for s in rec.steps)}


def _write_attrs(args, kwargs, result) -> dict:
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode("utf-8"))}


# Extra per-span attributes taken from a call's arguments and result.
ATTRS: dict[str, Callable] = {
    "optimize.run": _run_attrs,
    "experiment.write_atomic": _write_attrs,
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    task: object
    attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the traced functions while installed.

    Use as a context manager; ``task`` labels the spans recorded until it
    is changed. Single-threaded: the open-span stack is not shared.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.task: object = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.task)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "lqrnewton" or key.startswith("lqrnewton."))]
        wrappers = {}
        for mod, fn_name in TRACED:
            fn = getattr(sys.modules[f"lqrnewton.{mod}"], fn_name)
            wrappers[id(fn)] = (fn, self._wrap(f"{mod}.{fn_name}", fn))
        for module in modules:
            for key, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, key, value))
                    setattr(module, key, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for module, key, value in reversed(self._saved):
            setattr(module, key, value)
        self._saved.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are sequential, so a span's children never overlap and their
    covered time is the sum of their durations.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def ancestors(spans: list[Span], idx: int):
    """Names of the spans enclosing span ``idx``, innermost first."""
    p = spans[idx].parent
    while p is not None:
        yield spans[p].name
        p = spans[p].parent
