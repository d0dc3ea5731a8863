"""Exact sparse rational linear algebra: rank, kernels, span membership.

Matrices are lists of sparse rows (dict column -> value).  There is one
fraction-free reduction, and rank, kernels and span tests all use it.
Each row is scaled to coprime integers and reduced against an echelon
set: a dict from pivot column to integer row whose smallest column is
that pivot.  The reduction repeatedly takes the residual's smallest
column.  When a stored row with lead pv has that pivot and the residual
holds cv there, one step sets residual = (pv/g) * residual - (cv/g) * row
with g = gcd(pv, cv), then divides the residual by the gcd of its
entries, every step, which keeps entries small.  The step updates the
residual in place: it scales it only when pv/g != 1 and subtracts over
the stored row's entries alone, so a step costs the pivot row's length
plus the residual's when it must be scaled.  The plain cross-multiplied
step pv * residual - cv * row is g times this one, and both are divided
down to the same primitive row, so the stored rows do not depend on the
pre-scaling.  Otherwise the residual is independent and its smallest
column becomes a new pivot.

So the column labels are the pivot order, and a bad order fills the
echelon rows in.  ``SpanTracker`` renumbers the columns of its initial rows
sparsest first, ties by label, while it scales them to integers (a
Markowitz-style order; Markowitz 1957, LaMacchia-Odlyzko 1990), keeps that
numbering for later vectors, and numbers a column no initial row touches
when it first appears.  Renumbering changes neither the rank nor span
membership, so ``rank`` and ``in_span`` are trackers seeded with their
rows.  It does change which columns are free, so ``kernel_basis``, whose
vectors are indexed by the free columns of the RREF, keeps the natural
order and reads them off the echelon rows brought to reduced form over
Fractions.  For a fixed column order the pivot set depends only on the
row space, so results are exact and do not depend on row order.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

SparseRow = dict[int, Fraction]
IntRow = dict[int, int]


def _integerize(row: Mapping[int, Fraction], relabel: Mapping[int, int] | range) -> IntRow:
    """Scale a rational row to coprime integers, column c renamed relabel[c].

    Values may be ``Fraction`` or ``int``; an integer multiple of a row
    gives the same result.  The row returned is always a new dict, which
    ``_reduce`` may then change in place.
    """
    if all(type(v) is int for v in row.values()):
        ints = {relabel[c]: v for c, v in row.items() if v}
    else:
        denom = lcm(*(v.denominator for v in row.values()))
        ints = {relabel[c]: v.numerator * (denom // v.denominator) for c, v in row.items() if v}
    if not ints:
        return {}
    g = gcd(*ints.values())
    if g > 1:
        ints = {c: v // g for c, v in ints.items()}
    return ints


def _reduce(echelon: Mapping[int, IntRow], cur: IntRow) -> IntRow:
    """Reduce an integer row until its smallest column is no pivot; {} means dependent.

    Consumes ``cur``: each step (module docstring) changes it in place, so
    the caller passes a row it owns, such as one fresh from ``_integerize``.
    The stored rows are only read.
    """
    while cur:
        col = min(cur)
        pivot = echelon.get(col)
        if pivot is None:
            break
        pv, cv = pivot[col], cur[col]
        g = gcd(pv, cv)
        if g != 1:
            pv //= g
            cv //= g
        if pv != 1:
            for c in cur:
                cur[c] *= pv
        get = cur.get
        # the lead cancels here: pv * cur[col] == cv * pivot[col] after scaling
        for c, v in pivot.items():
            val = get(c, 0) - cv * v
            if val:
                cur[c] = val
            else:
                del cur[c]
        g = gcd(*cur.values())
        if g > 1:
            cur = {c: v // g for c, v in cur.items()}
    return cur


def _insert(echelon: dict[int, IntRow], row: IntRow) -> bool:
    """Store the row's residual under its new pivot; True if it was independent."""
    res = _reduce(echelon, row)
    if res:
        echelon[min(res)] = res
    return bool(res)


def _echelon(rows: Iterable[IntRow]) -> dict[int, IntRow]:
    """Echelon rows keyed by pivot column, one per independent row."""
    echelon: dict[int, IntRow] = {}
    for row in rows:
        _insert(echelon, row)
    return echelon


def rank(rows: Iterable[Mapping[int, Fraction]]) -> int:
    """Exact rank over the rationals, eliminating sparsest columns first."""
    return SpanTracker(rows).rank


def kernel_basis(rows: Iterable[Mapping[int, Fraction]], ncols: int) -> list[SparseRow]:
    """A basis of the right kernel, one vector per free column, ascending.

    The vector of free column f is 1 at f and -R[p][f] at every pivot p whose
    reduced row R[p] holds f, listed by descending pivot.
    """
    # range(ncols)[c] == c: the natural order
    echelon = _echelon(_integerize(row, range(ncols)) for row in rows)
    basis = {f: {f: Fraction(1)} for f in range(ncols) if f not in echelon}
    # reduced[p] holds R[p] on the free columns; pivots descending, so every
    # other pivot column of row p is already reduced
    reduced: dict[int, dict[int, Fraction]] = {}
    for p in sorted(echelon, reverse=True):
        row = echelon[p]
        acc: dict[int, Fraction] = {}
        for c, v in row.items():
            if c == p:
                continue
            if c in reduced:
                for g, w in reduced[c].items():
                    acc[g] = acc.get(g, 0) - v * w
            else:
                acc[c] = acc.get(c, 0) + v
        lead = row[p]
        reduced[p] = {g: Fraction(v, lead) for g, v in acc.items() if v}
        for g, v in reduced[p].items():
            vec = basis.get(g)
            if vec is not None:
                vec[p] = -v
    return list(basis.values())


class _Relabel(dict):
    """Column numbers; a column seen for the first time gets the next one."""

    def __missing__(self, column: int) -> int:
        self[column] = number = len(self)
        return number


class SpanTracker:
    """Incremental row space in the column order of its initial rows (module docstring)."""

    def __init__(self, rows: Iterable[Mapping[int, Fraction]] = ()) -> None:
        rows = list(rows)
        count = Counter(chain.from_iterable(rows))
        # stable sorts: by count, ties by column label
        self._relabel = _Relabel(
            (c, i) for i, c in enumerate(sorted(sorted(count), key=count.__getitem__))
        )
        self._echelon = _echelon(_integerize(row, self._relabel) for row in rows)

    @property
    def rank(self) -> int:
        return len(self._echelon)

    def pivot_columns(self) -> set[int]:
        """The columns that lead the stored rows, in the caller's labels.

        Restricted to these columns the stored rows are triangular with a
        nonzero diagonal, so the unit vectors of the other columns span a
        complement of the tracked span.
        """
        # numbers follow insertion order, so the list of keys inverts _relabel
        columns = list(self._relabel)
        return {columns[number] for number in self._echelon}

    def residual(self, vector: Mapping[int, Fraction]) -> IntRow:
        """Reduce a vector against the tracked span; {} means dependent."""
        return _reduce(self._echelon, _integerize(vector, self._relabel))

    def add(self, vector: Mapping[int, Fraction]) -> bool:
        """Add a vector; True if it enlarged the span."""
        return _insert(self._echelon, _integerize(vector, self._relabel))

    def copy(self) -> SpanTracker:
        """An independent tracker of the same span, in the same column order.

        Shallow: ``_insert`` stores new rows but never changes a stored one,
        and a column keeps its number once it has one, so the two trackers
        may share rows and numbering.
        """
        other = SpanTracker()
        other._relabel = self._relabel
        other._echelon = dict(self._echelon)
        return other


def in_span(vectors: Sequence[Mapping[int, Fraction]], candidate: Mapping[int, Fraction]) -> bool:
    """Whether candidate lies in the span of the given vectors."""
    return not SpanTracker(vectors).residual(candidate)
