"""Span recorder for the traced run.

The traced run wraps module attributes of ``quatpert`` from the outside:
each wrapper records a span (name, start, end, parent span, op id) and,
optionally, counts taken from the call's arguments and result.  Spans are
kept in memory and summarised once, at the end of the run.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans.  A wrapped name that no longer exists in the
program is skipped at install time and reported with zero calls.
"""

from __future__ import annotations

import functools
import sys
import time

def _terms(args, kwargs, result):
    return {"series.terms": len(result.terms)}


def _sigma_rows(args, kwargs, result):
    return {"models.sigma_rows": len(result.rows)}


def _level_rows(args, kwargs, result):
    return {"relativistic.rows": len(result)}


def _table_rows(args, kwargs, result):
    return {"relativistic.rows": len(result.rows)}


def _rendered(args, kwargs, result):
    return {"output.bytes": len(result)}


def _written(args, kwargs, result):
    rows = args[2] if len(args) > 2 else kwargs["rows"]
    return {"output.rows": len(rows)}


def _compared(args, kwargs, result):
    # oracle_compare reads exactly one eigenvalue of the 2N x 2N embedding.
    return {"oracle.matrix_dim": 2 * result.grid_points, "oracle.eigs_used": 1}


def _eigs_computed(args, kwargs, result):
    return {"oracle.eigs_computed": len(result)}


# (span name, module, attribute path, counter).  A counter maps
# (args, kwargs, result) to {count name: increment}.  One span name may
# wrap the same function under several modules, because callers that import
# a function by name hold their own reference to it.
LAYERS = (
    ("cli.main", "quatpert.cli", "main", None),
    ("series.perturbed_energy", "quatpert.series", "perturbed_energy", _terms),
    ("series.perturbed_energy", "quatpert.models", "perturbed_energy", _terms),
    ("series.perturbed_energy", "quatpert.oracle", "perturbed_energy", _terms),
    ("series.coefficient_closed", "quatpert.series", "correction_coefficient_closed", None),
    ("models.sigma_curve", "quatpert.models", "sigma_curve", _sigma_rows),
    ("relativistic.levels", "quatpert.relativistic", "hydrogen_levels_vs_potential", _level_rows),
    ("relativistic.table", "quatpert.relativistic", "comparison_table", _table_rows),
    ("output.render", "quatpert._output", "render", _rendered),
    ("output.write", "quatpert.cli", "write_output", _written),
    ("oracle.compare", "quatpert.oracle", "oracle_compare", _compared),
    ("oracle.discretize", "quatpert.oracle", "discretize", None),
    ("oracle.h_eigensolve", "quatpert.oracle", "DiscreteHamiltonian.eigenpair", None),
    ("oracle.embedded_solve", "quatpert.oracle", "_all_eigenvalues", _eigs_computed),
    ("oracle.inverse_iteration", "quatpert.oracle", "_eigenvector", None),
    ("oracle.residual", "quatpert.oracle", "_residual", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in LAYERS))
IMPORT_SPANS = ("import.interpreter", "import.cli", "import.oracle")
COUNT_NAMES = (
    "series.terms", "models.sigma_rows", "relativistic.rows", "output.bytes",
    "output.rows", "oracle.matrix_dim", "oracle.eigs_used", "oracle.eigs_computed",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, end, parent, op):
        self.name, self.start, self.end, self.parent, self.op = name, start, end, parent, op


class Recorder:
    """Holds the spans and counts of one process; ``op`` tags new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.op = 0
        self._open: list[int] = []

    def add(self, name, start, end):
        """Record a finished span under the innermost open one."""
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, start, end, parent, self.op))

    def wrap(self, name, fn, counter=None):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = recorder._open[-1] if recorder._open else None
            span = Span(name, time.perf_counter(), None, parent, recorder.op)
            recorder._open.append(len(recorder.spans))
            recorder.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                recorder._open.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    recorder.counts[key] += value
            return result

        wrapper.perfbench_span = name
        return wrapper

    def install(self) -> list[str]:
        """Wrap every listed attribute of the already imported modules.

        Modules not yet imported are left alone, so tracing never loads the
        oracle (and scipy) into a process that would not load it.  Returns
        the span names installed.
        """
        installed = []
        for name, module_name, path, counter in LAYERS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            *owners, attr = path.split(".")
            owner = module
            for part in owners:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None or hasattr(original, "perfbench_span"):
                continue
            setattr(owner, attr, self.wrap(name, original, counter))
            installed.append(name)
        return installed

    def export(self) -> dict:
        """Plain-data form, for handing spans across a process boundary."""
        return {
            "spans": [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans],
            "counts": self.counts,
        }


def covered_length(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_stats(spans) -> dict[str, dict[str, float]]:
    """Calls, busy seconds and self seconds per span name.

    ``spans`` is a list of ``Span`` objects whose ``parent`` fields index
    into the same list.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    stats: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        busy = span.end - span.start
        covered = covered_length(children.get(index, ()), span.start, span.end)
        entry = stats.setdefault(span.name, {"calls": 0, "busy": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["busy"] += busy
        entry["self"] += busy - covered
    return stats


def spans_from_export(data, op: int, offset: int) -> list[Span]:
    """Rebuild spans exported by another process for appending to a list.

    ``offset`` is the length of the list they are appended to, so that
    parent indices keep pointing at the right spans; ``op`` re-tags them.
    """
    return [
        Span(name, start, end, None if parent is None else parent + offset, op)
        for name, start, end, parent, _ in data
    ]
