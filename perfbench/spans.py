"""Spans around the public functions of each hfcalc module, installed from outside.

The benchmark traces the program without editing it: for every function in
``SPANS`` a timing wrapper replaces each module-global binding that refers to
the original, in every loaded ``hfcalc`` module and in the package namespace.
That is where a caller looks the name up: ``grading`` imports
``solve_integer_system`` by name, and ``zlattice.solve_integer_system`` calls
``smith_normal_form`` through ``zlattice``'s own globals.  Leaving the context
restores every binding.

A function missing at the traced commit is reported as absent instead of
failing the run, so the benchmark keeps working after a refactor deletes it.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps


@dataclass
class SpanStats:
    """Totals for one span name within one trace window."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    cells: int = 0      # smith_normal_form: rows * cols of each matrix factored
    empty: int = 0      # solve_integer_system: results without an integer solution
    layers: int = 0     # audit_index: layers in each report


def _count_cells(stats: SpanStats, args, result) -> None:
    m = args[0] if args else None
    stats.cells += getattr(m, "rows", 0) * getattr(m, "cols", 0)


def _count_empty(stats: SpanStats, args, result) -> None:
    stats.empty += bool(getattr(result, "is_empty", False))


def _count_layers(stats: SpanStats, args, result) -> None:
    stats.layers += len(getattr(result, "layers", ()))


# (span name, defining module, function name, per-call counter)
SPANS = (
    ("zlattice.snf", "hfcalc.zlattice", "smith_normal_form", _count_cells),
    ("zlattice.solve", "hfcalc.zlattice", "solve_integer_system", _count_empty),
    ("grading.enumerate", "hfcalc.grading", "enumerate_generators", None),
    ("grading.solve_domain", "hfcalc.grading", "solve_domain", None),
    ("grading.partition", "hfcalc.grading", "spinc_partition", None),
    ("grading.table", "hfcalc.grading", "grading_table", None),
    ("grading.relative_grading", "hfcalc.grading", "relative_grading", None),
    ("grading.positive", "hfcalc.grading", "positive_representative", None),
    ("grading.homology", "hfcalc.grading", "homology_of_Y", None),
    ("layers.audit", "hfcalc.layers", "audit_index", _count_layers),
    ("diagram.load", "hfcalc.diagram", "load_diagram", None),
    ("diagram.serialize", "hfcalc.diagram", "serialize", None),
    ("atlas.build", "hfcalc.atlas", "build_torus_diagram", None),
    ("atlas.build", "hfcalc.atlas", "build_annulus_open_book", None),
    ("atlas.build", "hfcalc.atlas", "build_s1s2", None),
    ("atlas.stabilize", "hfcalc.atlas", "stabilize", None),
    ("cli.main", "hfcalc.cli", "main", None),
)


class Tracer:
    """Nested spans kept in memory; ``window()`` starts a fresh set of totals.

    A span's self time is its duration minus the durations of the spans it
    directly encloses.  ``top_level_s`` sums the spans entered with no
    enclosing span, so the caller can tell how much of its own timed region
    no span covers.
    """

    def __init__(self):
        self._stack: list[list[float]] = []
        self.window()

    def window(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.top_level_s = 0.0

    def wrap(self, name: str, fn, counter=None):
        stack = self._stack

        @wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                else:
                    self.top_level_s += dt
                stats = self.stats.setdefault(name, SpanStats())
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - children[0]
            if counter is not None:
                counter(stats, args, result)
            return result

        return span


@contextmanager
def installed(tracer: Tracer):
    """Install every span; yield the list of functions found absent."""
    targets = [vars(m) for name, m in list(sys.modules.items())
               if name == "hfcalc" or name.startswith("hfcalc.")]
    patched = []
    absent = []
    try:
        for name, modname, fname, counter in SPANS:
            module = sys.modules.get(modname)
            original = getattr(module, fname, None)
            if original is None:
                absent.append(f"{modname}.{fname}")
                continue
            wrapper = tracer.wrap(name, original, counter)
            for ns in targets:
                for key, value in list(ns.items()):
                    if value is original:
                        ns[key] = wrapper
                        patched.append((ns, key, original))
        yield absent
    finally:
        for ns, key, original in reversed(patched):
            ns[key] = original
