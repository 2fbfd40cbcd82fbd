"""Spans and work counters recorded around submon's layer functions.

The tracer replaces each traced function with a wrapper in every
``submon`` module namespace that binds it, because ``cli``, ``spectral``,
``transfersystems`` and ``reference`` import these functions by name.  A
span is ``[name, start, end, parent, query]``: ``parent`` is the index of
the enclosing span or None, ``query`` the index of the query in its batch.
Spans stay in memory and are written out when the run ends.

Work counters are computed from the objects the functions return, after
the function's span has closed.  That bookkeeping is itself recorded as a
``trace`` span, so the layers' self times plus the tracer's own time
partition the time spent inside ``cli.main``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# Layer (a module of submon) -> traced public functions.
TRACED = {
    "monoid": ("from_spec", "semilattice_order"),
    "submonoids": ("enumerate_submonoids",),
    "transfer": ("build_transfer_matrix", "count_sequence"),
    "spectral": ("spectrum_of", "solve_coefficients", "ogf"),
    "transfersystems": (
        "st_count_sequence",
        "verify_graph_isomorphism",
        "enumerate_saturated_transfer_systems",
    ),
    "cli": ("main",),
}

# Span name -> the per-layer metric its self time counts towards.
SELF_TIME_METRIC = {
    "monoid.from_spec": "monoid.from_spec_s",
    "monoid.semilattice_order": "monoid.from_spec_s",
    "submonoids.enumerate_submonoids": "submonoids.enumerate_s",
    "transfer.build_transfer_matrix": "transfer.build_self_s",
    "transfer.count_sequence": "transfer.walk_s",
    "spectral.spectrum_of": "spectral.spectrum_self_s",
    "spectral.solve_coefficients": "spectral.solve_s",
    "spectral.ogf": "spectral.ogf_self_s",
    "transfersystems.st_count_sequence": "transfersystems.st_count_s",
    "transfersystems.verify_graph_isomorphism": "transfersystems.iso_self_s",
    "transfersystems.enumerate_saturated_transfer_systems": "transfersystems.list_s",
    "cli.main": "cli.self_s",
    "trace": "trace.self_s",
}

COUNTERS = (
    "submonoids.k",
    "submonoids.masks_scanned",
    "transfer.nnz",
    "transfer.cells",
    "transfer.walk_terms",
    "transfer.walk_madds",
    "transfer.max_count_bits",
    "spectral.eigs",
    "transfersystems.systems",
    "transfersystems.cylinder_systems",
)


def _nnz(matrix) -> int:
    # Rows are dense weight tuples today; a sparse row of (column, weight)
    # pairs holds no zeros, so the same expression counts its entries.
    return sum(len(row) - row.count(0) for row in matrix.entries)


class Tracer:
    """Collects spans, work counters and per-layer exception counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.query: int | None = None
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.errors = dict.fromkeys(TRACED, 0)
        self._stack: list[int] = []
        self._nnz_of = (None, 0)

    def install(self) -> None:
        """Wrap every traced function wherever a submon module binds it."""
        wrapped = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"submon.{layer}")
            for name in names:
                original = getattr(module, name)
                counter = getattr(self, f"_count_{name}", None)
                wrapped[id(original)] = (
                    original,
                    self._wrap(f"{layer}.{name}", layer, original, counter),
                )
        for module_name, module in list(sys.modules.items()):
            if module_name != "submon" and not module_name.startswith("submon."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])

    def _wrap(self, span_name, layer, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [span_name, clock(), None, parent, self.query]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                start = clock()
                counter(args, result)
                spans.append(["trace", start, clock(), parent, self.query])
            return result

        return traced

    def _matrix_nnz(self, matrix) -> int:
        if self._nnz_of[0] is not matrix:
            self._nnz_of = (matrix, _nnz(matrix))
        return self._nnz_of[1]

    def _count_enumerate_submonoids(self, args, lattice) -> None:
        self.counters["submonoids.k"] += len(lattice)
        self.counters["submonoids.masks_scanned"] += 1 << (lattice.monoid.size - 1)

    def _count_build_transfer_matrix(self, args, matrix) -> None:
        self.counters["transfer.nnz"] += self._matrix_nnz(matrix)
        self.counters["transfer.cells"] += matrix.size**2

    def _count_count_sequence(self, args, sequence) -> None:
        terms = len(sequence.values) - 1
        self.counters["transfer.walk_terms"] += terms
        self.counters["transfer.walk_madds"] += self._matrix_nnz(args[0]) * terms
        bits = sequence.values[-1].bit_length()
        if bits > self.counters["transfer.max_count_bits"]:
            self.counters["transfer.max_count_bits"] = bits

    def _count_spectrum_of(self, args, spectrum) -> None:
        self.counters["spectral.eigs"] += len(spectrum.eigenvalues)

    def _count_st_count_sequence(self, args, sequence) -> None:
        self.counters["transfersystems.systems"] += sequence.values[0]
        if len(sequence.values) > 1:
            self.counters["transfersystems.cylinder_systems"] += sequence.values[1]


def self_times(spans) -> dict[str, float]:
    """Sum of each metric's self time: a span minus its child spans."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[SELF_TIME_METRIC[name]] += end - start - covered[i]
    return {metric: out[metric] for metric in dict.fromkeys(SELF_TIME_METRIC.values())}
