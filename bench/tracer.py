"""Span tracer that wraps polypoisson's layer functions from outside the package.

Each layer is one public function or method.  ``Tracer.install`` replaces it
in its defining module and in every other loaded ``polypoisson`` module that
imported it by name, so calls made inside the package are seen as well.
Spans are recorded only inside a root opened with ``Tracer.root`` (one per
benchmark op, plus one for set-up); calls outside a root, such as the answer
checks, pass straight through.  A layer whose public name no longer exists is
reported absent and the run goes on without it.

A span is ``[name, start, end, parent, op]``: perf_counter times, the index
of the enclosing span (None for a root) and the id of the root's op.  Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections.abc import Sequence
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, NamedTuple, Optional


def _coefficient_bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _slice_key(sl) -> tuple:
    return (
        sl.n, sl.k, sl.d, sl.weights,
        tuple(sorted(sl.exclude_value_vars)), tuple(sorted(sl.exclude_slot_vars)),
    )


class _Stats:
    """Counters of one layer within one pass."""

    def __init__(self) -> None:
        self.calls = 0
        self.counts: dict[str, int] = {}
        self.keys: set = set()

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


# -- per-layer counter hooks ---------------------------------------------------
#
# ``before(tracer, stats, args, kwargs)`` returns the arguments to call with (it
# turns a one-shot row iterable into a list, so it can be counted and used);
# ``after(tracer, stats, args, kwargs, result)`` reads the result.


def _matrix_input(tracer: "Tracer", stats: _Stats, args, kwargs):
    rows, *rest = args
    if not isinstance(rows, Sequence):
        rows = list(rows)
    nnz = bits = 0
    ncols = 0
    for row in rows:
        nnz += len(row)
        for col, value in row.items():
            if col >= ncols:
                ncols = col + 1
            b = _coefficient_bits(value)
            if b > bits:
                bits = b
    stats.add("rows_in", len(rows))
    stats.add("nnz_in", nnz)
    stats.counts["max_dim"] = max(stats.counts.get("max_dim", 0), len(rows), ncols)
    tracer.input_max_bits = max(tracer.input_max_bits, bits)
    return (rows, *rest), kwargs


def _rank_after(tracer, stats, args, kwargs, result) -> None:
    stats.add("rank_out", result)


def _kernel_after(tracer, stats, args, kwargs, result) -> None:
    stats.add("vectors_out", len(result))


def _span_add_after(tracer, stats, args, kwargs, result) -> None:
    stats.add("accepted", int(bool(result)))


def _slice_after(tracer, stats, args, kwargs, result) -> None:
    stats.add("basis_elems", result.dim)
    stats.keys.add(_slice_key(result))


def _delta_matrix_after(tracer, stats, args, kwargs, result) -> None:
    structure = args[0] if args else kwargs["S"]
    stats.add("cols", len(result.columns))
    stats.add("nnz", sum(len(column) for column in result.columns))
    stats.keys.add((id(structure), _slice_key(result.source), _slice_key(result.target)))


class Layer(NamedTuple):
    """One wrapped public name: ``module`` holds ``attr`` (``Class.method`` allowed)."""

    name: str
    module: str
    attr: str
    span: bool = True
    before: Optional[Callable] = None
    after: Optional[Callable] = None


LAYERS = (
    Layer("catalog.catalog_bivector", "polypoisson.catalog", "catalog_bivector"),
    Layer("poisson.verify", "polypoisson.poisson", "verify"),
    Layer("multivector.jacobi_trisum", "polypoisson.multivector", "jacobi_trisum"),
    Layer("multivector.integrability_via_forms", "polypoisson.multivector",
          "integrability_via_forms"),
    Layer("poisson.graded_integrability", "polypoisson.poisson", "graded_integrability"),
    Layer("cohomology.cohomology_dims", "polypoisson.cohomology", "cohomology_dims"),
    Layer("cohomology.cocycle_representatives", "polypoisson.cohomology",
          "cocycle_representatives"),
    Layer("cohomology.cochain_in_coboundaries", "polypoisson.cohomology",
          "cochain_in_coboundaries"),
    Layer("cohomology.slice_basis", "polypoisson.cohomology", "slice_basis",
          after=_slice_after),
    Layer("cohomology.delta_matrix", "polypoisson.cohomology", "delta_matrix",
          after=_delta_matrix_after),
    # counted only: its time is assembly, so it stays inside delta_matrix's self time
    Layer("cohomology.delta", "polypoisson.cohomology", "delta", span=False),
    Layer("linalg.rank", "polypoisson.linalg", "rank",
          before=_matrix_input, after=_rank_after),
    Layer("linalg.kernel_basis", "polypoisson.linalg", "kernel_basis",
          before=_matrix_input, after=_kernel_after),
    Layer("linalg.SpanTracker.add", "polypoisson.linalg", "SpanTracker.add",
          after=_span_add_after),
    Layer("linalg.in_span", "polypoisson.linalg", "in_span"),
)


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: "Tracer") -> dict[str, tuple[str, float]]:
    """The per-layer metrics of one pass: name -> (unit, value).

    Every name is present; an absent layer reads 0 and is listed in
    ``tracer.absent``.
    """
    self_s = tracer.self_times()
    empty = _Stats()

    def calls(layer: str) -> tuple[str, float]:
        return ("count", tracer.stats.get(layer, empty).calls)

    def seconds(layer: str) -> tuple[str, float]:
        return ("s", self_s.get(layer, 0.0))

    def count(layer: str, key: str) -> tuple[str, float]:
        return ("count", tracer.stats.get(layer, empty).counts.get(key, 0))

    def unique(layer: str) -> tuple[str, float]:
        st = tracer.stats.get(layer, empty)
        return ("ratio", _ratio(len(st.keys), st.calls))

    add = tracer.stats.get("linalg.SpanTracker.add", empty)
    roots = {span[0] for span in tracer.spans if span[3] is None}
    return {
        "poisson.verify.calls": calls("poisson.verify"),
        "poisson.verify.self_s": seconds("poisson.verify"),
        "multivector.jacobi_trisum.self_s": seconds("multivector.jacobi_trisum"),
        "multivector.integrability_via_forms.self_s": seconds("multivector.integrability_via_forms"),
        "poisson.graded_integrability.self_s": seconds("poisson.graded_integrability"),
        "catalog.catalog_bivector.self_s": seconds("catalog.catalog_bivector"),
        "cohomology.slice_basis.calls": calls("cohomology.slice_basis"),
        "cohomology.slice_basis.self_s": seconds("cohomology.slice_basis"),
        "cohomology.slice_basis.basis_elems": count("cohomology.slice_basis", "basis_elems"),
        "cohomology.slice_basis.unique_frac": unique("cohomology.slice_basis"),
        "cohomology.delta_matrix.calls": calls("cohomology.delta_matrix"),
        "cohomology.delta_matrix.self_s": seconds("cohomology.delta_matrix"),
        "cohomology.delta_matrix.cols": count("cohomology.delta_matrix", "cols"),
        "cohomology.delta_matrix.nnz": count("cohomology.delta_matrix", "nnz"),
        "cohomology.delta_matrix.unique_frac": unique("cohomology.delta_matrix"),
        "cohomology.delta.calls": calls("cohomology.delta"),
        "linalg.rank.calls": calls("linalg.rank"),
        "linalg.rank.self_s": seconds("linalg.rank"),
        "linalg.rank.rows_in": count("linalg.rank", "rows_in"),
        "linalg.rank.nnz_in": count("linalg.rank", "nnz_in"),
        "linalg.rank.rank_out": count("linalg.rank", "rank_out"),
        "linalg.rank.max_dim": count("linalg.rank", "max_dim"),
        "linalg.input_max_bits": ("bits", tracer.input_max_bits),
        "linalg.kernel_basis.calls": calls("linalg.kernel_basis"),
        "linalg.kernel_basis.self_s": seconds("linalg.kernel_basis"),
        "linalg.kernel_basis.vectors_out": count("linalg.kernel_basis", "vectors_out"),
        "linalg.SpanTracker.add.calls": calls("linalg.SpanTracker.add"),
        "linalg.SpanTracker.add.self_s": seconds("linalg.SpanTracker.add"),
        "linalg.SpanTracker.add.accepted_frac":
            ("ratio", _ratio(add.counts.get("accepted", 0), add.calls)),
        "linalg.in_span.calls": calls("linalg.in_span"),
        "linalg.in_span.self_s": seconds("linalg.in_span"),
        "cohomology.cohomology_dims.self_s": seconds("cohomology.cohomology_dims"),
        "cohomology.cocycle_representatives.self_s": seconds("cohomology.cocycle_representatives"),
        "cohomology.cochain_in_coboundaries.self_s": seconds("cohomology.cochain_in_coboundaries"),
        "trace.unattributed_s": ("s", sum(self_s.get(root, 0.0) for root in roots)),
    }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stats: dict[str, _Stats] = {}
        self.input_max_bits = 0
        self.absent: list[str] = []
        self._patched: list[tuple] = []  # (owner, attr, original)
        self._stack: list[int] = []
        self._op = None

    # -- installation ------------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every layer that exists; return the names of absent ones."""
        for layer in LAYERS:
            try:
                module = importlib.import_module(layer.module)
            except ImportError:
                self.absent.append(layer.name)
                continue
            owner_name, _, attr = layer.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(layer.name)
                continue
            sites = [owner]
            if owner is module:
                # every other site that imported the function by name
                sites += [
                    other for name, other in list(sys.modules.items())
                    if (name == "polypoisson" or name.startswith("polypoisson."))
                    and other is not module and getattr(other, attr, None) is original
                ]
            wrapped = self._wrap(layer, original)
            for site in sites:
                setattr(site, attr, wrapped)
                self._patched.append((site, attr, original))
        return self.absent

    def uninstall(self) -> None:
        """Put every original function back."""
        for site, attr, original in reversed(self._patched):
            setattr(site, attr, original)
        self._patched.clear()

    def _wrap(self, layer: Layer, fn):
        stack = self._stack
        spans = self.spans
        stats = self.stats.setdefault(layer.name, _Stats())
        name, before, after = layer.name, layer.before, layer.after

        if not layer.span:
            def counted(*args, **kwargs):
                if stack:
                    stats.calls += 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            stats.calls += 1
            if before is not None:
                args, kwargs = before(self, stats, args, kwargs)
            index = len(spans)
            spans.append([name, perf_counter(), None, stack[-1], self._op])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, stats, args, kwargs, result)
            return result

        return traced

    # -- roots -------------------------------------------------------------------

    @contextmanager
    def root(self, name: str, op):
        """Open a top-level span; layer calls inside it are recorded."""
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, None, op])
        self._stack.append(index)
        self._op = op
        try:
            yield
        finally:
            self.spans[index][2] = perf_counter()
            self._stack.pop()
            self._op = None

    # -- results -----------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name (roots included, under their own name)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start - child[i])
        return totals

    def write(self, path, meta: dict) -> None:
        """Write the spans with ``meta``; times are relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [
            [name, round(start - t0, 9), round(end - t0, 9), parent, op]
            for name, start, end, parent, op in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(meta, absent=self.absent, fields=["name", "start_s", "end_s", "parent", "op"],
                           spans=spans), fh)
