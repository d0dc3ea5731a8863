"""The Lichnerowicz-Poisson complex with exact, degree-graded linear algebra.

The coboundary of a k-derivation phi against a verified structure S is the
two-sum formula

    (d phi)(P_1,...,P_{k+1}) = sum_i (-1)^{i-1} {P_i, phi(..., ^P_i, ...)}
        + sum_{i<j} (-1)^{i+j} phi({P_i, P_j}, ..., ^P_i, ..., ^P_j, ...),

which ``delta`` evaluates on coordinate tuples.  ``delta_via_forms``
recomputes the same operator through the exterior-form correspondence
(shuffle-summed iterated contractions of Omega and of the form of phi),
weighted by two signs that ``form_delta_sign`` gives in closed form from
n and k.

Finite-dimensional slices fix the arity k and the polynomial degree d of the
values, optionally filtered by a weight rule (value weight equals the sum of
the slot weights) and by banned variables; for the rigid-algebra reduction
the torus variable is excluded from both value monomials and slots, which is
the subcomplex the weight filter closes on.

Coboundary matrices on slices do not call ``delta``.  ``delta_matrix``
writes each column down from the elementary-cochain rule: for the cochain
x^a on the slot tuple T (sorted), the image is

    sum over u not in T, with U = T + {u}:
        (-1)^{pos_U(u)} {X_u, x^a} = (-1)^{pos_U(u)} sum_j a_j P_{uj} x^{a - e_j}
    sum over t in T and i < j outside T - {t}, with U = T - {t} + {i, j}:
        (-1)^{pos_T(t) + pos_U(i) + pos_U(j)} x^a dP_{ij}/dX_t

on the slot tuple U, so a column touches only the O(nnz(P) k) targets it
can reach.  The structure is scaled to integers once per matrix and column
values are exact ``Fraction``s; ``delta`` is the oracle the columns are
tested against.  The matrices feed the fraction-free rank/kernel routines.

Tables (``cohomology_dims``) split slices into weight blocks when the
caller sets no filter and some coordinate X_m brackets diagonally,
{X_m, X_i} = w_i X_i (internal index 0: X_0 of the rigid family, X_1 of
P1 and P2).  The cochain x^a on the slots T has weight
sum_i a_i w_i - sum_{t in T} w_t, the coboundary keeps it, and with
i phi = phi(X_m, ...) the map delta i + i delta multiplies each block by
its weight, so every block of weight != 0 is acyclic.  Only the weight-0
block (the ``weights=w`` slice) is eliminated; the rank the other blocks
carry follows from dimensions, counted without building a basis, by
R(k, d) = (dim - dim of the block)(k, d) - R(k - 1, d), R(-1, d) = 0.  With
a filter, or no diagonal coordinate, the block is the filtered slice and R
is 0.  Representatives and membership tests always use whole slices.

The reports check dim Z + rank(outgoing) = dim(slice) with a rank inside
0..dim(slice), dim B <= dim Z, and that each R lies inside 0..(dim of the
other blocks) and vanishes at k = n; they raise ``ComplexInvariantError``
when any fails, with or without ``python -O``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add, mul
from typing import Iterable, Mapping, Optional, Sequence

from . import linalg
from .exterior import ExteriorForm, IndexTuple, shuffles
from .multivector import MultiDerivation, phi_inverse, phi_map

# verify has no caller here; bench/selftest.py checks that untracing restores
# cohomology.verify, so the name stays importable from this module
from .poisson import PoissonStructure, verify
from .poly import Exponents, Polynomial, _checked_vars, add_into, monomial_basis

# -- coboundary ---------------------------------------------------------------


def delta(S: PoissonStructure, phi: MultiDerivation) -> MultiDerivation:
    """Coboundary of a k-derivation; a (k+1)-derivation, zero once k >= n."""
    n = S.n
    if phi.n != n:
        raise ValueError("variable count mismatch")
    k = phi.k
    if k >= n:
        return MultiDerivation.zero(n, k + 1)
    out: dict[IndexTuple, Polynomial] = {}
    for U in itertools.combinations(range(n), k + 1):
        total = Polynomial.zero(n)
        for pos, u in enumerate(U):
            rest = U[:pos] + U[pos + 1 :]
            val = phi.values.get(rest)
            if val is not None:
                br = S.bracket_coordinate(u, val)
                if not br.is_zero:
                    total = total + br if pos % 2 == 0 else total - br
        if k:
            for a, b in itertools.combinations(range(k + 1), 2):
                entry = S.entry(U[a], U[b])
                if entry.is_zero:
                    continue
                rest = tuple(U[c] for c in range(k + 1) if c != a and c != b)
                val = phi.evaluate_first(entry, rest)
                if val.is_zero:
                    continue
                total = total + val if (a + b) % 2 == 0 else total - val
        if not total.is_zero:
            out[U] = total
    return MultiDerivation(n, k + 1, out)


# -- the exterior-calculus route ----------------------------------------------


def _form_delta_parts(
    S: PoissonStructure, phi: MultiDerivation
) -> tuple[ExteriorForm, ExteriorForm]:
    """The two shuffle-summed contraction sums of the form-route coboundary.

    Per shuffle sigma with first run F and second run T, the first sum
    collects i(F)[d(i(T) Omega) ^ form(phi)] and the second
    i(F)[Omega ^ d(i(T) form(phi))], each weighted by sgn(sigma) and by the
    prefactor (-1)^{(n-k)(n-k+1)/2}.  Here i(F) = i(f_1) ... i(f_m) composes
    rightmost first, but ``interior_coordinates`` contracts in ascending
    order, f_1 first.  Reversing m anticommuting contractions costs
    (-1)^{m(m-1)/2}, so the prefactor also carries that sign for m = k + 1
    (the run F) and for m = n - k - 1 (the run T).
    """
    n, k = S.n, phi.k
    omega = S.omega()
    form_phi = phi_map(phi)
    m1, m2 = k + 1, n - k - 1
    flips = (n - k) * (n - k + 1) // 2 + m1 * (m1 - 1) // 2 + m2 * (m2 - 1) // 2
    epsilon = -1 if flips % 2 else 1
    part_a = ExteriorForm.zero(n, n - k - 1)
    part_b = ExteriorForm.zero(n, n - k - 1)
    for sh in shuffles(m1, m2):
        first, second = sh.perm[:m1], sh.perm[m1:]
        contracted_omega = omega.interior_coordinates(second)
        if not contracted_omega.is_zero:
            inner = contracted_omega.d().wedge(form_phi)
            part_a = part_a + inner.interior_coordinates(first) * sh.sign
        contracted_phi = form_phi.interior_coordinates(second)
        if not contracted_phi.is_zero:
            inner = omega.wedge(contracted_phi.d())
            part_b = part_b + inner.interior_coordinates(first) * sh.sign
    return part_a * epsilon, part_b * epsilon


def form_delta_sign(n: int, k: int) -> tuple[int, int]:
    """Sign constants (relative, global) aligning the form route with delta.

    The d(i(T) Omega)-sum enters with the relative sign (-1)^k for even n and
    +1 for odd n, and the whole sum with (-1)^(k(k+1)/2 + n + 1).  Both follow
    from expanding the two shuffle sums of ``_form_delta_parts`` on an
    elementary cochain; the derivation is in notes/decisions.md.
    """
    if not 3 <= n or not 0 <= k < n:
        raise ValueError(f"no sign to resolve for n={n}, k={k}")
    rel = -1 if n % 2 == 0 and k % 2 else 1
    overall = -1 if (k * (k + 1) // 2 + n + 1) % 2 else 1
    return rel, overall


def delta_via_forms(S: PoissonStructure, phi: MultiDerivation) -> MultiDerivation:
    """Coboundary through the form correspondence; equals delta() exactly."""
    n = S.n
    if n < 3:
        raise ValueError("the form route needs at least three variables")
    if phi.n != n:
        raise ValueError("variable count mismatch")
    if phi.k >= n:
        return MultiDerivation.zero(n, phi.k + 1)
    rel, overall = form_delta_sign(n, phi.k)
    part_a, part_b = _form_delta_parts(S, phi)
    return phi_inverse(part_a * rel + part_b) * overall


# -- graded slices -------------------------------------------------------------


@dataclass(frozen=True)
class GradedSlice:
    """Ordered basis of homogeneous degree-d k-cochains, possibly filtered.

    Basis elements are (slot tuple, monomial exponents) pairs, slots ascending
    lexicographically and monomials ascending in graded lex order.
    """

    n: int
    k: int
    d: int
    weights: Optional[tuple[int, ...]]
    exclude_value_vars: frozenset[int]
    exclude_slot_vars: frozenset[int]
    basis: tuple[tuple[IndexTuple, Exponents], ...]
    index: Mapping[tuple[IndexTuple, Exponents], int] = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def element(self, position: int) -> MultiDerivation:
        idx, exps = self.basis[position]
        return MultiDerivation.elementary(self.n, idx, Polynomial.monomial(self.n, exps))

    def to_vector(self, phi: MultiDerivation) -> dict[int, Fraction]:
        """Coordinates of a cochain in this slice; rejects outside terms."""
        if phi.k != self.k or phi.n != self.n:
            raise ValueError("cochain does not match the slice shape")
        vec: dict[int, Fraction] = {}
        for idx, poly in phi.values.items():
            for exps, coeff in poly.terms.items():
                pos = self.index.get((idx, exps))
                if pos is None:
                    raise ValueError(
                        f"cochain term {idx}:{exps} lies outside the slice"
                    )
                vec[pos] = coeff
        return vec

    def from_vector(self, vec: Mapping[int, Fraction]) -> MultiDerivation:
        pairs = ((self.basis[pos], coeff) for pos, coeff in vec.items())
        values = add_into({}, (
            (idx, Polynomial.monomial(self.n, exps, coeff)) for (idx, exps), coeff in pairs
        ))
        return MultiDerivation(self.n, self.k, values)


def slice_basis(
    n: int,
    k: int,
    d: int,
    weights: Optional[Sequence[int]] = None,
    exclude_value_vars: Iterable[int] = (),
    exclude_slot_vars: Iterable[int] = (),
) -> GradedSlice:
    """Deterministic basis of the (k, d) slice.

    With ``weights``, keeps exactly the elementary cochains whose monomial
    weight equals the sum of the slot weights (torus invariance; the
    weight-0 block of ``cohomology_dims`` uses this filter).  Banned
    value variables drop monomials; banned slot variables drop tuples.
    """
    value_banned = _checked_vars(n, exclude_value_vars)
    slot_banned = _checked_vars(n, exclude_slot_vars)
    if not 0 <= k <= n:
        return GradedSlice(n, k, d, None, value_banned, slot_banned, (), {})
    wt = tuple(weights) if weights is not None else None
    slots = [i for i in range(n) if i not in slot_banned]
    basis = []
    if d >= 0:
        plain = monomial_basis(n, d, exclude_vars=value_banned)
        by_weight: dict[int, list[Exponents]] = {}
        if wt is not None:
            for e in plain:
                by_weight.setdefault(sum(map(mul, e, wt)), []).append(e)
        for idx in itertools.combinations(slots, k):
            monos = plain if wt is None else by_weight.get(sum(wt[i] for i in idx), ())
            basis.extend((idx, e) for e in monos)
    index = {pair: pos for pos, pair in enumerate(basis)}
    return GradedSlice(
        n, k, d, wt, value_banned, slot_banned, tuple(basis), index
    )


def slice_dims(
    n: int,
    d: int,
    weights: Optional[Sequence[int]] = None,
    exclude_value_vars: Iterable[int] = (),
    exclude_slot_vars: Iterable[int] = (),
) -> list[int]:
    """``slice_basis(n, k, d, ...).dim`` for k = 0..n, counted without a basis.

    Slot tuples are counted per weight sum by the subset recursion, and each
    count is multiplied by the number of degree-d monomials of that weight.
    Without ``weights`` every weight is 0, and the count is
    C(#slots, k) * C(#value variables + d - 1, d).
    """
    wt = tuple(weights) if weights is not None else (0,) * n
    slot_banned = _checked_vars(n, exclude_slot_vars)
    monos = Counter(
        sum(map(mul, e, wt)) for e in monomial_basis(n, d, exclude_vars=exclude_value_vars)
    )
    # tuples[k][s]: number of k-element slot tuples whose weights sum to s
    tuples: list[Counter] = [Counter({0: 1})] + [Counter() for _ in range(n)]
    for i in range(n):
        if i in slot_banned:
            continue
        for k in range(n, 0, -1):
            for s, count in tuples[k - 1].items():
                tuples[k][s + wt[i]] += count
    return [sum(count * monos[s] for s, count in by_sum.items()) for by_sum in tuples]


# -- coboundary matrices --------------------------------------------------------


@dataclass(frozen=True)
class DeltaMatrix:
    """Sparse exact matrix of the coboundary between two slices.

    Columns are indexed by the source basis, rows by the target basis.
    """

    source: GradedSlice
    target: GradedSlice
    columns: tuple[dict[int, Fraction], ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.target.dim, self.source.dim)

    def rank(self) -> int:
        # rank is transposition-invariant; the columns are already sparse rows
        return linalg.rank(self.columns)

    def rows(self) -> list[dict[int, Fraction]]:
        out: list[dict[int, Fraction]] = [dict() for _ in range(self.target.dim)]
        for col, column in enumerate(self.columns):
            for row, val in column.items():
                out[row][col] = val
        return out

    def kernel(self) -> list[dict[int, Fraction]]:
        return linalg.kernel_basis(self.rows(), self.source.dim)

    def triplets(self) -> list[tuple[int, int, Fraction]]:
        out = []
        for col, column in enumerate(self.columns):
            for row in sorted(column):
                out.append((row, col, column[row]))
        out.sort()
        return out


def _left_slice(reason: str) -> ValueError:
    return ValueError(
        "coboundary left the filtered slice; the filters do not cut a "
        f"subcomplex for this structure ({reason})"
    )


def _integer_tables(S: PoissonStructure) -> tuple[int, list[list], list[list]]:
    """The structure's entries and their partials, scaled to integers.

    Returns (denom, rows, partials).  ``rows[u]`` lists (j, terms) for each
    nonzero signed entry P_{uj}, a term being (e - e_j, coefficient); the
    shift turns x^a into the exponents of x^{a - e_j} * x^e.
    ``partials[t]`` lists (i, j, terms) for each nonzero dP_{ij}/dX_t with
    i < j, a term being (exponents, coefficient).  Every coefficient is
    multiplied by ``denom``, the common denominator of the entries.
    """
    n = S.n
    entries = S.bivector.values
    denom = lcm(*(c.denominator for p in entries.values() for c in p.terms.values()))
    rows: list[list] = [[] for _ in range(n)]
    partials: list[list] = [[] for _ in range(n)]
    for (i, j), poly in entries.items():
        for u, v, sign in ((i, j, 1), (j, i, -1)):
            terms = []
            for exps, c in poly.terms.items():
                shift = list(exps)
                shift[v] -= 1
                terms.append((tuple(shift), sign * int(c * denom)))
            rows[u].append((v, terms))
        for t in range(n):
            dp = poly.partial(t)
            if not dp.is_zero:
                partials[t].append(
                    (i, j, [(exps, int(c * denom)) for exps, c in dp.terms.items()])
                )
    return denom, rows, partials


def _slot_terms(
    n: int, T: IndexTuple, rows: list[list], partials: list[list]
) -> tuple[list, list]:
    """What the coboundary of x^a on slots T contributes, for any monomial x^a.

    Sum 1 lists (U, j, terms) with U = T + {u}: the term (-1)^{pos_U(u)}
    a_j P_{uj} x^{a - e_j} of {X_u, x^a}.  Sum 2 lists (U, terms) with
    U = T - {t} + {i, j}: x^a times the signed partials
    (-1)^{pos_T(t) + pos_U(i) + pos_U(j)} dP_{ij}/dX_t, merged per U.
    """
    sum1 = []
    for u in range(n):
        if u in T:
            continue
        pos = bisect_left(T, u)
        U = T[:pos] + (u,) + T[pos:]
        sign = -1 if pos % 2 else 1
        for j, terms in rows[u]:
            sum1.append((U, j, [(shift, sign * c) for shift, c in terms]))
    merged: dict[IndexTuple, dict[Exponents, int]] = {}
    for pt, t in enumerate(T):
        rest = T[:pt] + T[pt + 1 :]
        for i, j, terms in partials[t]:
            if i in rest or j in rest:
                continue
            pi, pj = bisect_left(rest, i), bisect_left(rest, j)
            U = rest[:pi] + (i,) + rest[pi:pj] + (j,) + rest[pj:]
            sign = -1 if (pt + pi + pj + 1) % 2 else 1
            poly = merged.setdefault(U, {})
            for exps, c in terms:
                poly[exps] = poly.get(exps, 0) + sign * c
    sum2 = []
    for U, poly in merged.items():
        terms = [(exps, c) for exps, c in poly.items() if c]
        if terms:
            sum2.append((U, terms))
    return sum1, sum2


def delta_matrix(
    S: PoissonStructure,
    source: GradedSlice,
    target: Optional[GradedSlice] = None,
) -> DeltaMatrix:
    """Matrix of the coboundary on a slice; target degree is d + r - 1.

    Requires homogeneous entries of a single degree r and checks that every
    image lands inside the filtered target slice.  Each column is written
    down from the elementary-cochain rule; ``delta`` is its oracle.
    """
    r = S.homogeneous_degree()
    if target is None:
        target = slice_basis(
            source.n,
            source.k + 1,
            source.d + r - 1,
            weights=source.weights,
            exclude_value_vars=source.exclude_value_vars,
            exclude_slot_vars=source.exclude_slot_vars,
        )
    if source.dim and source.n != S.n:
        raise ValueError("variable count mismatch")
    if source.dim and (target.n, target.k) != (source.n, source.k + 1):
        raise _left_slice("cochain does not match the slice shape")
    denom, rows, partials = _integer_tables(S)
    fractions: dict[int, Fraction] = {}
    terms_of: dict[IndexTuple, tuple[list, list]] = {}
    columns = []
    for T, a in source.basis:
        if T not in terms_of:
            terms_of[T] = _slot_terms(S.n, T, rows, partials)
        sum1, sum2 = terms_of[T]
        acc: dict[tuple[IndexTuple, Exponents], int] = {}
        for U, j, terms in sum1:
            aj = a[j]
            if aj:
                for shift, c in terms:
                    key = (U, tuple(map(add, a, shift)))
                    acc[key] = acc.get(key, 0) + aj * c
        for U, terms in sum2:
            for shift, c in terms:
                key = (U, tuple(map(add, a, shift)))
                acc[key] = acc.get(key, 0) + c
        column: dict[int, Fraction] = {}
        for key, value in acc.items():
            if not value:
                continue
            pos = target.index.get(key)
            if pos is None:
                raise _left_slice(f"cochain term {key[0]}:{key[1]} lies outside the slice")
            frac = fractions.get(value)
            if frac is None:
                frac = fractions[value] = Fraction(value, denom)
            column[pos] = frac
        columns.append(column)
    return DeltaMatrix(source, target, tuple(columns))


# -- cohomology reports -----------------------------------------------------------


class ComplexInvariantError(RuntimeError):
    """A dimension identity of the complex failed: a bug, never a property of the input."""


@dataclass(frozen=True)
class CohomologyRow:
    k: int
    d: int
    dim_chi: int
    dim_Z: int
    dim_B: int

    @property
    def dim_H(self) -> int:
        return self.dim_Z - self.dim_B

    def as_dict(self) -> dict[str, int]:
        return {
            "k": self.k,
            "d": self.d,
            "dim_chi": self.dim_chi,
            "dim_Z": self.dim_Z,
            "dim_B": self.dim_B,
            "dim_H": self.dim_H,
        }


class CohomologyReport:
    """Per-(k, d) dimensions with deterministic ordering and totals."""

    def __init__(self, rows: Iterable[CohomologyRow]) -> None:
        self.rows = tuple(sorted(rows, key=lambda r: (r.k, r.d)))
        self._by_key = {(r.k, r.d): r for r in self.rows}

    def row(self, k: int, d: int) -> CohomologyRow:
        return self._by_key[(k, d)]

    def total(self, k: int) -> int:
        return sum(r.dim_H for r in self.rows if r.k == k)

    def profile(self, k: int) -> dict[int, int]:
        return {r.d: r.dim_H for r in self.rows if r.k == k}

    def to_json_rows(self) -> list[dict[str, int]]:
        return [r.as_dict() for r in self.rows]

    def to_text(self) -> str:
        header = f"{'k':>3} {'d':>3} {'dim_chi':>8} {'dim_Z':>6} {'dim_B':>6} {'dim_H':>6}"
        lines = [header]
        for r in self.rows:
            lines.append(
                f"{r.k:>3} {r.d:>3} {r.dim_chi:>8} {r.dim_Z:>6} {r.dim_B:>6} {r.dim_H:>6}"
            )
        ks = sorted({r.k for r in self.rows})
        lines.append("totals over d: " + "  ".join(f"H^{k}={self.total(k)}" for k in ks))
        return "\n".join(lines)


def _diagonal_weights(S: PoissonStructure) -> Optional[tuple[int, ...]]:
    """Torus weights of the first coordinate that brackets diagonally.

    Returns w, scaled to integers by the lcm of its denominators, for the
    first internal index m with {X_m, X_i} = w_i X_i for every i and w not
    all zero; None when there is no such m.  Scaling keeps the weight-0
    block.
    """
    n = S.n
    for m in range(n):
        w = []
        for i in range(n):
            terms = S.entry(m, i).terms
            if len(terms) > 1:
                break
            if terms:
                ((exps, c),) = terms.items()
                if exps != tuple(int(j == i) for j in range(n)):
                    break
                w.append(c)
            else:
                w.append(0)
        else:
            if any(w):
                scale = lcm(*(c.denominator for c in w))
                return tuple(int(c * scale) for c in w)
    return None


class _SliceCache:
    """Slices, counted dimensions and outgoing ranks of one filtered complex.

    ``block(k, d)`` is the weight-0 block of slice (k, d): with no filter from
    the caller it is cut by the diagonal weights of the structure, and
    otherwise (or with no diagonal coordinate) it is the filtered slice
    itself.  Only blocks are eliminated; ``correction`` adds the rank that
    the acyclic blocks of weight != 0 carry, from dimensions alone.
    """

    def __init__(
        self,
        S: PoissonStructure,
        weights: Optional[Sequence[int]],
        exclude_vars: Iterable[int],
    ) -> None:
        self.S = S
        self.r = S.homogeneous_degree()
        self.weights = tuple(weights) if weights is not None else None
        self.banned = frozenset(exclude_vars)
        self._slices: dict[tuple, GradedSlice] = {}
        self._dims: dict[tuple, list[int]] = {}
        self._ranks: dict[tuple[int, int], int] = {}
        self._corrections: dict[tuple[int, int], int] = {}

    @cached_property
    def block_weights(self) -> Optional[tuple[int, ...]]:
        if self.weights is None and not self.banned:
            return _diagonal_weights(self.S)
        return self.weights

    def _slice(self, weights: Optional[tuple[int, ...]], k: int, d: int) -> GradedSlice:
        key = (weights, k, d)
        if key not in self._slices:
            self._slices[key] = slice_basis(
                self.S.n,
                k,
                d,
                weights=weights,
                exclude_value_vars=self.banned,
                exclude_slot_vars=self.banned,
            )
        return self._slices[key]

    def _dim(self, weights: Optional[tuple[int, ...]], k: int, d: int) -> int:
        if not 0 <= k <= self.S.n:
            return 0
        key = (weights, d)
        if key not in self._dims:
            self._dims[key] = slice_dims(self.S.n, d, weights, self.banned, self.banned)
        return self._dims[key][k]

    def slice(self, k: int, d: int) -> GradedSlice:
        return self._slice(self.weights, k, d)

    def block(self, k: int, d: int) -> GradedSlice:
        return self._slice(self.block_weights, k, d)

    def dim(self, k: int, d: int) -> int:
        return self._dim(self.weights, k, d)

    def block_dim(self, k: int, d: int) -> int:
        return self._dim(self.block_weights, k, d)

    def correction(self, k: int, d: int) -> int:
        """Rank of the coboundary on the blocks of weight != 0 of slice (k, d).

        Each such block is acyclic, so its outgoing rank is its dimension
        minus its incoming rank; summed over the blocks this is
        R(k, d) = (dim - block_dim)(k, d) - R(k - 1, d), with R(-1, d) = 0.
        A diagonal coordinate forces r = 1, so d stays fixed along k.
        """
        if k < 0:
            return 0
        key = (k, d)
        if key not in self._corrections:
            off_block = self.dim(k, d) - self.block_dim(k, d)
            value = off_block - self.correction(k - 1, d)
            if not 0 <= value <= off_block:
                raise ComplexInvariantError(
                    f"weight blocks fail at k={k}, d={d}: their coboundary would "
                    f"have rank {value} on {off_block} cochains"
                )
            self._corrections[key] = value
        return self._corrections[key]

    def outgoing_rank(self, k: int, d: int) -> int:
        key = (k, d)
        if key not in self._ranks:
            block_rank = 0
            if k < self.S.n and self.block_dim(k, d):
                block_rank = delta_matrix(
                    self.S, self.block(k, d), self.block(k + 1, d + self.r - 1)
                ).rank()
            self._ranks[key] = block_rank + self.correction(k, d)
        return self._ranks[key]


def cohomology_dims(
    S: PoissonStructure,
    ks: Iterable[int],
    ds: Iterable[int],
    weights: Optional[Sequence[int]] = None,
    exclude_vars: Iterable[int] = (),
) -> CohomologyReport:
    """Exact dim chi / Z / B / H per (k, d); checks rank-nullity and B <= Z.

    ``exclude_vars`` removes the given variables from both value monomials
    and slots (the invariant-subcomplex reduction); ``weights`` switches on
    the torus-weight filter.

    With neither, and a coordinate X_m with {X_m, X_i} = w_i X_i, only the
    weight-0 block of each slice is eliminated; the blocks of weight != 0
    are acyclic and their ranks follow from counted dimensions (see the
    module docstring and ``_SliceCache.correction``).  Besides rank-nullity
    and B <= Z, each correction must lie in range and the corrections must
    vanish at k = n, where the complex of the other blocks ends.
    """
    cache = _SliceCache(S, weights, exclude_vars)
    ds = sorted(set(ds))
    for d in ds:
        left = cache.correction(S.n, d)
        if left:
            raise ComplexInvariantError(
                f"weight blocks do not close at d={d}: rank {left} left over at k={S.n}"
            )
    rows = []
    for k in sorted(set(ks)):
        for d in ds:
            dim_chi = cache.dim(k, d)
            out_rank = cache.outgoing_rank(k, d)
            if not 0 <= out_rank <= dim_chi:
                raise ComplexInvariantError(
                    f"rank-nullity fails at k={k}, d={d}: the outgoing coboundary "
                    f"has rank {out_rank} on a slice of dimension {dim_chi}"
                )
            dim_Z = dim_chi - out_rank
            if k == 0:
                dim_B = 0
            else:
                prev_d = d - cache.r + 1
                dim_B = cache.outgoing_rank(k - 1, prev_d) if prev_d >= 0 else 0
            if dim_B > dim_Z:
                raise ComplexInvariantError(
                    f"coboundaries exceed cocycles at k={k}, d={d}: the complex is broken"
                )
            rows.append(CohomologyRow(k, d, dim_chi, dim_Z, dim_B))
    return CohomologyReport(rows)


def cocycle_representatives(
    S: PoissonStructure,
    k: int,
    d: int,
    weights: Optional[Sequence[int]] = None,
    exclude_vars: Iterable[int] = (),
) -> list[MultiDerivation]:
    """A basis of a complement of the coboundaries inside the cocycles.

    Each representative is fixed only up to a nonzero scalar and a
    coboundary; it is not normalised to any published generator.
    """
    cache = _SliceCache(S, weights, exclude_vars)
    sl = cache.slice(k, d)
    if sl.dim == 0:
        return []
    if k >= S.n:
        kernel_vectors: list[dict[int, Fraction]] = [
            {i: Fraction(1)} for i in range(sl.dim)
        ]
    else:
        out_matrix = delta_matrix(S, sl, cache.slice(k + 1, d + cache.r - 1))
        kernel_vectors = out_matrix.kernel()
    tracker = linalg.SpanTracker()
    if k > 0 and d - cache.r + 1 >= 0:
        incoming = delta_matrix(S, cache.slice(k - 1, d - cache.r + 1), sl)
        for column in incoming.columns:
            tracker.add(column)
    reps = []
    for vec in kernel_vectors:
        if tracker.add(vec):
            reps.append(sl.from_vector(vec))
    return reps


def cochain_in_coboundaries(
    S: PoissonStructure,
    phi: MultiDerivation,
    d: Optional[int] = None,
    weights: Optional[Sequence[int]] = None,
    exclude_vars: Iterable[int] = (),
) -> bool:
    """Exact class-triviality test by rank augmentation."""
    if phi.is_zero:
        return True
    degrees = {p.total_degree() for p in phi.values.values()}
    if d is None:
        if len(degrees) != 1:
            raise ValueError("cochain is not degree-homogeneous; pass d explicitly")
        d = degrees.pop()
    cache = _SliceCache(S, weights, exclude_vars)
    sl = cache.slice(phi.k, d)
    vec = sl.to_vector(phi)
    if phi.k == 0 or d - cache.r + 1 < 0:
        return False
    incoming = delta_matrix(S, cache.slice(phi.k - 1, d - cache.r + 1), sl)
    return linalg.in_span(incoming.columns, vec)


# -- cocycle normalization for the rigid family ----------------------------------


def normalize_cocycle(S: PoissonStructure, phi: MultiDerivation) -> MultiDerivation:
    """Subtract a coboundary so the (X_1, X_i) slots vanish for 2 <= i <= n-2.

    Works for structures with {X_1, X_i} = X_{i+1} on internal indices
    1 <= i <= n-2 (the rigid family on X_0..X_n); the class of phi is
    unchanged.  Raises ValueError when the structure lacks that ladder or the
    input is not a 2-cocycle.
    """
    n = S.n
    if phi.k != 2:
        raise ValueError("normalization applies to 2-cochains")
    if not delta(S, phi).is_zero:
        raise ValueError("not a cocycle; normalization undefined")
    one = 1  # internal index of the ladder generator
    for i in range(2, n - 1):
        expected = Polynomial.variable(n, i + 1)
        if S.entry(one, i) != expected:
            raise ValueError(
                "structure does not carry the X1-ladder needed for normalization"
            )
    f_values: dict[IndexTuple, Polynomial] = {}

    def f_of(i: int) -> Polynomial:
        return f_values.get((i,), Polynomial.zero(n))

    for i in range(2, n - 1):
        # choose f(X_{i+1}) so that (phi - delta f)(X_1, X_i) = 0
        slot = phi.values.get((one, i), Polynomial.zero(n))
        candidate = (
            S.bracket_coordinate(one, f_of(i))
            - S.bracket_coordinate(i, f_of(one))
            - slot
        )
        if not candidate.is_zero:
            f_values[(i + 1,)] = candidate
    correction = delta(S, MultiDerivation(n, 1, f_values))
    result = phi - correction
    for i in range(2, n - 1):
        if (one, i) in result.values:
            raise ValueError("normalization failed to clear a ladder slot")
    return result
