"""The Lichnerowicz-Poisson complex with exact, degree-graded linear algebra.

The coboundary of a k-derivation phi against a verified structure S is the
two-sum formula

    (d phi)(P_1,...,P_{k+1}) = sum_i (-1)^{i-1} {P_i, phi(..., ^P_i, ...)}
        + sum_{i<j} (-1)^{i+j} phi({P_i, P_j}, ..., ^P_i, ..., ^P_j, ...).

On coordinate tuples it reduces to the elementary-cochain rule: for the
cochain x^a on the slot tuple T (sorted), the image is

    sum over u not in T, with U = T + {u}:
        (-1)^{pos_U(u)} {X_u, x^a} = (-1)^{pos_U(u)} sum_j a_j P_{uj} x^{a - e_j}
    sum over t in T and i < j outside T - {t}, with U = T - {t} + {i, j}:
        (-1)^{pos_T(t) + pos_U(i) + pos_U(j)} x^a dP_{ij}/dX_t

on the slot tuple U, so an elementary cochain touches only the
O(nnz(P) k) targets it can reach.  The coboundary runs on the multiple
L * P, with L the lcm of the coefficient denominators, that the bivector's
integrability pass (``multivector._integrability``) kept when ``verify``
checked it, so a structure is scaled to integers once in all; that
multiple, its tables packed per width and each slot tuple's terms are kept
on the structure (``_Coboundary``), since none depends on a slice, a degree
or a filter.  Each (slot tuple U, exponents e) pair is one int, its code
(bitmask of U) << (n w) + sum_i e_i << (i w) at a width w with 2^w above
every exponent involved.
Packing is linear, so the tables are packed straight from L * P, each term
of the rule is one int addition to the code of a and one int-keyed lookup,
and it is exact (notes/decisions.md, entry 8).  ``delta`` applies the rule
to each term of a cochain and decodes the sums; ``delta_matrix`` writes one
column per basis cochain with it, looked up in the target's positions by
code (``_packed_index``, computed per call: a slice is a plain value and
keeps none), as ``int``s L times the true ones, and
``DeltaMatrix.triplets`` divides by L.  Ranks, kernels and boundary
echelons start from those integer columns: scaling a column by L > 0
leaves its primitive integer row, and so every echelon, unchanged.  The
two-sum itself, evaluated on coordinate tuples, lives in
``tests/oracles.py`` as ``two_sum_delta``, the oracle both are tested
against, beside ``tuple_keyed_columns``, the rule on
(U, exponents) keys from tables of its own.  ``delta_via_forms``
recomputes the same operator through the exterior-form correspondence
(per shuffle, d of a contraction of Omega or of the form of phi, paired
with phi or with P), weighted by two signs that ``form_delta_sign`` gives
in closed form from n and k.

Finite-dimensional slices fix the arity k and the polynomial degree d of the
values, optionally filtered by a weight rule (value weight equals the sum of
the slot weights) and by banned variables; for the rigid-algebra reduction
the torus variable is excluded from both value monomials and slots, which is
the subcomplex the weight filter closes on.

Every query splits slices into weight blocks when the caller sets no
filter and some coordinate X_m brackets diagonally, {X_m, X_i} = w_i X_i
(internal index 0: X_0 of the rigid family, X_1 of P1 and P2).
``diagonal_weights`` reads w off the bracket; it is the one source of torus
weights, also for the CLI's ``--invariant`` and the reproduction checks.
The cochain x^a on the slots T has weight sum_i a_i w_i - sum_{t in T} w_t,
the coboundary keeps it, and with i phi = phi(X_m, ...) the map
delta i + i delta multiplies each block by its weight, so every block of
weight != 0 is acyclic.  Only the weight-0 block (the ``weights=w`` slice)
is ever built.  Tables eliminate it, and the rank the other blocks carry
follows from dimensions by
R(k, d) = (dim - dim of the block)(k, d) - R(k - 1, d), R(-1, d) = 0.
The dims of a degree are counted once, in one table for every k: each block
dim from the monomials that the complex groups by weight to build the
blocks, and the dim of a slice the complex split itself in closed form,
C(n, k) C(n + d - 1, d).
Representatives are picked inside the block, and a membership test reduces
the block part of a cochain and checks that the rest is a cocycle.  With a
filter, or no diagonal coordinate, the block is the filtered slice and R
is 0.

Each verified structure keeps one complex (``_SliceCache``) per filter,
made on first use by ``_complex`` and shared by ``cohomology_dims``,
``cocycle_representatives`` and ``cochain_in_coboundaries``.  It keeps, per
degree, the grouped monomials and the table of dims and R, and per (k, d)
the block and the echelon of the
coboundaries inside the block (the boundary echelon), whose rank is also
the outgoing block rank of (k - 1, d - r + 1).  Boundary echelons are
cleared, since delta o delta = 0: the unit vectors of the source cochains
off the pivot columns of the echelon one step below complete its
coboundaries to a basis of the source block, and delta kills the
coboundaries, so those cochains alone span the image.  Only their columns
are assembled and eliminated, after the echelon below; the rank, and the
span that representatives and membership read, are those of the whole
matrix (notes/decisions.md, entry 11).  The complex keeps no coboundary
matrix: the columns of each are assembled at most once, from the
structure's shared integer tables, and handed to its echelon in integers.
Tables and representatives share one ``row(k, d)``; a representatives
query returns [] when its dim H is 0, stops once it holds dim H classes,
and raises ``ComplexInvariantError`` unless the block's kernel less its
boundary rank is dim H.

The reports check dim Z + rank(outgoing) = dim(slice) with a rank inside
0..dim(slice) and dim B <= dim Z, and every table, representatives query
and membership test reads a degree's dims only once each R lies inside
0..(dim of the other blocks) and vanishes at k = n.  A failed check raises
``ComplexInvariantError``, with or without ``python -O``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import comb, lcm
from operator import lshift, mul
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from . import linalg
from .exterior import ExteriorForm, IndexTuple
from .multivector import MultiDerivation, _integrability, phi_inverse, phi_map

# verify has no caller here; bench/selftest.py checks that untracing restores
# cohomology.verify, so the name stays importable from this module
from .poisson import PoissonStructure, verify
from .poly import (
    Exponents,
    Polynomial,
    Scalar,
    _checked_vars,
    _checked_weights,
    add_into,
    monomial_basis,
)

# -- coboundary ---------------------------------------------------------------


def _packed_tables(multiple: MultiDerivation, w: int) -> tuple[list, list, list]:
    """The coboundary tables of the integer multiple L * P, packed at width w.

    ``rows[u]`` lists (j, terms) for each nonzero signed entry P_{uj}, a term
    being (code, c) for a term c x^e of the entry, with code
    ``_pack(e, w) - (1 << j * w)``: the shift that turns x^a into
    x^{a - e_j} * x^e.  ``negated`` is ``rows`` with every c negated.
    ``partials[t]`` lists (i, j, terms) for each nonzero dP_{ij}/dX_t with
    i < j, a term being (code, c) of the partial.  A -1 digit packs exactly,
    since packing is linear (notes/decisions.md, entry 8).
    """
    n = multiple.n
    rows: list[list] = [[] for _ in range(n)]
    negated: list[list] = [[] for _ in range(n)]
    partials: list[list] = [[] for _ in range(n)]
    for (i, j), poly in multiple.values.items():
        terms = [(e, _pack(e, w), c) for e, c in poly.terms.items()]
        for u, v, sign in ((i, j, 1), (j, i, -1)):
            row = [(code - (1 << v * w), sign * c) for _, code, c in terms]
            rows[u].append((v, row))
            negated[u].append((v, [(code, -c) for code, c in row]))
        for t in range(n):
            partial = [(code - (1 << t * w), c * e[t]) for e, code, c in terms if e[t]]
            if partial:
                partials[t].append((i, j, partial))
    return rows, negated, partials


def _pack(exps: Sequence[int], w: int) -> int:
    """sum_i e_i 2^(i w): linear in the exponents, so a -1 digit packs exactly."""
    return sum(map(lshift, exps, range(0, len(exps) * w, w)))


def _decode(n: int, w: int, code: int) -> tuple[IndexTuple, Exponents]:
    """The (slot tuple, exponents) pair of a code (see ``_Coboundary``)."""
    digit = (1 << w) - 1
    mask = code >> (n * w)
    return (tuple([u for u in range(n) if mask >> u & 1]),
            tuple([code >> s & digit for s in range(0, n * w, w)]))


class _Coboundary(dict):
    """The integer coboundary data of one structure, on packed codes.

    ``(denom, multiple)`` is L and L * P from the integrability pass that
    ``verify`` kept on the structure's bivector, and ``degree`` its largest
    entry degree.  A (slot tuple U, exponents e) pair is keyed by one int,
    its code at width w:
    (bitmask of U) << (n w) + sum_i e_i << (i w), exact whenever 2^w exceeds
    every exponent involved (notes/decisions.md, entry 8).  ``self[T, w]``
    gives, for any monomial x^a, what the coboundary of x^a on slots T
    contributes, as codes to add to the code of a:

    * sum 1 lists (slots, row) per u not in T with a nonzero row, u
      ascending, for U = T + {u}: ``slots`` is the bitmask of U shifted to
      its place, and ``row`` lists (j, pairs), the (code, c) terms of
      (-1)^{pos_U(u)} P_{uj} x^{-e_j}, to be scaled by a_j and used only
      when a_j >= 1;
    * sum 2 lists the (code, c) terms of the signed partials
      (-1)^{pos_T(t) + pos_U(i) + pos_U(j)} dP_{ij}/dX_t with
      U = T - {t} + {i, j}, slots included, merged per U.

    ``multiple`` is packed once per width (``_packed_tables``), and ``width``
    reuses the widest one packed so far, so a structure packs few.  Nothing
    here depends on a slice, a degree or a filter, so ``delta`` and every
    ``delta_matrix`` of the structure share one, made by ``_coboundary``.
    """

    def __init__(self, S: PoissonStructure) -> None:
        super().__init__()
        self.n = S.n
        self.degree = max(S.entry_degrees(), default=0)
        self.denom, self.multiple, _ = _integrability(S.bivector)
        self._tables: dict[int, tuple[list, list, list]] = {}

    def width(self, bound: int) -> int:
        """A width w >= 2 with 2^w > bound: the widest packed so far if it is wide enough."""
        widest = max(self._tables, default=0)
        return max(widest, bound.bit_length(), 2)

    def __missing__(self, key: tuple[IndexTuple, int]) -> tuple[list, list]:
        T, w = key
        if w not in self._tables:
            self._tables[w] = _packed_tables(self.multiple, w)
        rows, negated, partials = self._tables[w]
        high = self.n * w
        mask = sum(1 << t for t in T)
        sum1 = []
        for u in range(self.n):
            if rows[u] and u not in T:
                odd = bisect_left(T, u) % 2
                sum1.append(((mask | 1 << u) << high, negated[u] if odd else rows[u]))
        merged: dict[int, dict[int, int]] = {}
        for pt, t in enumerate(T):
            rest = T[:pt] + T[pt + 1 :]
            for i, j, terms in partials[t]:
                if i in rest or j in rest:
                    continue
                pi, pj = bisect_left(rest, i), bisect_left(rest, j)
                slots = (mask ^ 1 << t | 1 << i | 1 << j) << high
                sign = -1 if (pt + pi + pj + 1) % 2 else 1
                poly = merged.setdefault(slots, {})
                for code, c in terms:
                    poly[slots + code] = poly.get(slots + code, 0) + sign * c
        sum2 = [(code, c) for poly in merged.values() for code, c in poly.items() if c]
        self[key] = terms = (sum1, sum2)
        return terms


def _coboundary(S: PoissonStructure) -> _Coboundary:
    """The one ``_Coboundary`` of S, made on first use and kept on it."""
    if S._coboundary is None:
        S._coboundary = _Coboundary(S)
    return S._coboundary


def _elementary_image(code: int, a: Exponents, sum1: list, sum2: list) -> dict[int, int]:
    """The image of x^a on slots T, from ``_Coboundary`` terms of T, keyed by code.

    ``code`` packs a at the width of the terms.  Values are integers,
    ``denom`` times the true coefficients, and may be 0; keys come in the
    order of the terms, sum 1 first.
    """
    acc: dict[int, int] = {}
    for slots, row in sum1:
        base = code + slots
        for j, terms in row:
            aj = a[j]
            if aj:
                for shift, c in terms:
                    key = base + shift
                    acc[key] = acc.get(key, 0) + aj * c
    for shift, c in sum2:
        key = code + shift
        acc[key] = acc.get(key, 0) + c
    return acc


def delta(S: PoissonStructure, phi: MultiDerivation) -> MultiDerivation:
    """Coboundary of a k-derivation; a (k+1)-derivation, zero once k >= n.

    Applies the elementary-cochain rule term by term: the monomial c x^a on
    the slots T adds c times the image of x^a on T.  Images are summed in
    integers, by code, at a width above the largest cochain degree plus the
    largest entry degree; each sum is decoded and divided once.
    """
    n = S.n
    if phi.n != n:
        raise ValueError("variable count mismatch")
    if phi.k >= n:
        return MultiDerivation.zero(n, phi.k + 1)
    cob = _coboundary(S)
    degree = max((max(map(sum, poly.terms)) for poly in phi.values.values()), default=0)
    w = cob.width(degree + cob.degree)
    # phi times L is integral; the image is then denom * L times the true one
    L = lcm(*(c.denominator for poly in phi.values.values() for c in poly.terms.values()))
    total: dict[int, int] = {}
    for T, poly in phi.values.items():
        slot_terms = cob[T, w]
        for a, c in poly.terms.items():
            m = c.numerator * (L // c.denominator)
            for code, value in _elementary_image(_pack(a, w), a, *slot_terms).items():
                if value:
                    total[code] = total.get(code, 0) + m * value
    scale = cob.denom * L
    out: dict[IndexTuple, dict[Exponents, Fraction]] = {}
    for code, value in total.items():
        U, exps = _decode(n, w, code)
        terms = out.setdefault(U, {})  # slot tuples keep the order they first appear in
        if value:
            terms[exps] = Fraction(value, scale)
    values = {U: Polynomial._trusted(n, terms) for U, terms in out.items() if terms}
    return MultiDerivation._trusted(n, phi.k + 1, values)


# -- the exterior-calculus route ----------------------------------------------


def _pairing(form: ExteriorForm, md: MultiDerivation) -> Polynomial:
    """<form, md> = sum_I form_I md_I over the index tuples both hold."""
    products = (c * md.values[idx] for idx, c in form.terms.items() if idx in md.values)
    return sum(products, Polynomial.zero(md.n))


def _form_delta_parts(
    S: PoissonStructure, phi: MultiDerivation
) -> tuple[ExteriorForm, ExteriorForm]:
    """The two shuffle sums of the form-route coboundary, one pairing per shuffle.

    A (k + 1, n - k - 1)-shuffle sigma is fixed by its second run T, an
    increasing (n - k - 1)-subset of 0..n-1, with the first run F its
    complement and sgn(sigma) = sgn(F, T).  Per shuffle the first sum
    collects i(F)[d(i(T) Omega) ^ form(phi)] and the second
    i(F)[Omega ^ d(i(T) form(phi))], each weighted by sgn(sigma) and by the
    prefactor (-1)^{(n-k)(n-k+1)/2}.  Each bracket is a top form g vol;
    contracting it by F in ascending order gives sgn(F, T) g dX_T, so each
    shuffle puts g alone on dX_T.  And g is a pairing, since
    alpha ^ form(phi) = <alpha, phi> vol and Omega ^ beta = <beta, P> vol
    (notes/decisions.md, entry 5): part_a[T] = <d(i(T) Omega), phi> and
    part_b[T] = <d(i(T) form(phi)), P>.  The formula's
    i(F) = i(f_1) ... i(f_m) composes rightmost first, the reverse of that
    ascending order and of ``interior_coordinates`` on T.  Reversing m
    anticommuting contractions costs (-1)^{m(m-1)/2}, so epsilon carries
    that sign for m = k + 1 (F) and m = n - k - 1 (T) besides the prefactor.
    """
    n, k = S.n, phi.k
    omega = phi_map(S.bivector)
    form_phi = phi_map(phi)
    m1, m2 = k + 1, n - k - 1
    flips = (n - k) * (n - k + 1) // 2 + m1 * (m1 - 1) // 2 + m2 * (m2 - 1) // 2
    epsilon = -1 if flips % 2 else 1
    part_a: dict[IndexTuple, Polynomial] = {}
    part_b: dict[IndexTuple, Polynomial] = {}
    for second in itertools.combinations(range(n), m2):
        part_a[second] = _pairing(omega.interior_coordinates(second).d(), phi)
        part_b[second] = _pairing(form_phi.interior_coordinates(second).d(), S.bivector)
    return ExteriorForm(n, m2, part_a) * epsilon, ExteriorForm(n, m2, part_b) * epsilon


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


class GradedSlice(NamedTuple):
    """Ordered basis of homogeneous degree-d k-cochains, possibly filtered.

    Basis elements are (slot tuple, monomial exponents) pairs, slots ascending
    lexicographically and monomials ascending in graded lex order.  A slice
    is a plain value of its seven fields and keeps nothing else: a slice
    equals only slices, and assigning, deleting or adding an attribute raises
    ``AttributeError``.  Positions by code are computed per use
    (``_packed_index``).
    """

    n: int
    k: int
    d: int
    weights: Optional[tuple[int, ...]]
    exclude_value_vars: frozenset[int]
    exclude_slot_vars: frozenset[int]
    basis: tuple[tuple[IndexTuple, Exponents], ...]

    # False, not NotImplemented: a plain tuple's reflected __eq__ would then
    # call a slice equal to the tuple of its fields
    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    @property
    def dim(self) -> int:
        return len(self.basis)

    def from_vector(self, vec: Mapping[int, Fraction]) -> MultiDerivation:
        pairs = ((self.basis[pos], coeff) for pos, coeff in vec.items())
        values = add_into({}, (
            (idx, Polynomial.monomial(self.n, exps, coeff)) for (idx, exps), coeff in pairs
        ))
        return MultiDerivation(self.n, self.k, values)


def _packed_index(sl: GradedSlice, w: int) -> dict[int, int]:
    """Position by code of ``_Coboundary`` at width w, in basis order; needs 2^w > d."""
    high = sl.n * w
    index: dict[int, int] = {}
    monomials: dict[Exponents, int] = {}
    last, slots = None, 0
    # the basis runs slot tuple by slot tuple
    for pos, (T, e) in enumerate(sl.basis):
        if T is not last:
            last, slots = T, sum(1 << t for t in T) << high
        code = monomials.get(e)
        if code is None:
            code = monomials[e] = _pack(e, w)
        index[slots + code] = pos
    return index


def slice_basis(
    n: int,
    k: int,
    d: int,
    weights: Optional[Sequence[int]] = None,
    exclude_value_vars: Iterable[int] = (),
    exclude_slot_vars: Iterable[int] = (),
) -> GradedSlice:
    """Deterministic basis of the (k, d) slice.

    Keeps exactly the elementary cochains whose monomial weight equals the
    sum of the slot weights (torus invariance; the weight-0 block of
    ``cohomology_dims`` uses this filter).  ``weights=None`` is the zero
    weight, which every cochain passes.  Banned value variables drop
    monomials; banned slot variables drop tuples.
    """
    value_banned = _checked_vars(n, exclude_value_vars)
    slot_banned = _checked_vars(n, exclude_slot_vars)
    wt = _checked_weights(n, weights)
    by_weight = _monomials_by_weight(n, d, wt, value_banned) if 0 <= k <= n else {}
    return _graded_slice(n, k, d, wt, value_banned, slot_banned, by_weight)


def _monomials_by_weight(
    n: int, d: int, weights: Optional[tuple[int, ...]], banned: frozenset[int]
) -> dict[int, list[Exponents]]:
    """The degree-d monomials free of ``banned``, grouped by weight, each group in grlex order."""
    w = weights or (0,) * n
    by_weight: dict[int, list[Exponents]] = {}
    for e in monomial_basis(n, d, exclude_vars=banned):
        by_weight.setdefault(sum(map(mul, e, w)), []).append(e)
    return by_weight


def _graded_slice(
    n: int,
    k: int,
    d: int,
    weights: Optional[tuple[int, ...]],
    value_banned: frozenset[int],
    slot_banned: frozenset[int],
    by_weight: Mapping[int, list[Exponents]],
) -> GradedSlice:
    """Slice (k, d) from its monomials grouped by weight (``_monomials_by_weight``).

    Each allowed slot tuple takes the monomials whose weight is the sum of its
    slot weights; a k outside 0..n gives the empty slice.
    """
    basis: tuple[tuple[IndexTuple, Exponents], ...] = ()
    if 0 <= k <= n:
        w = weights or (0,) * n
        basis = tuple(
            (idx, e)
            for idx in itertools.combinations([i for i in range(n) if i not in slot_banned], k)
            for e in by_weight.get(sum(w[i] for i in idx), ())
        )
    return GradedSlice(n, k, d, weights, value_banned, slot_banned, basis)


def _weight_counts(weights: Sequence[int], size: int) -> list[Counter]:
    """counts[j][s]: the j-element subsets of the items, one per entry of
    ``weights``, whose weights sum to s; j = 0..size.

    Each item updates sizes in descending order, so it is added at most once.
    """
    counts = [Counter({0: 1})] + [Counter() for _ in range(size)]
    for wi in weights:
        for j in range(size, 0, -1):
            for s, count in counts[j - 1].items():
                counts[j][s + wi] += count
    return counts


# -- coboundary matrices --------------------------------------------------------


class DeltaMatrix(NamedTuple):
    """Sparse exact matrix of the coboundary between two slices.

    A read-only record of exactly four fields: ``source``, ``target``,
    ``denom`` and ``columns``.  Columns are indexed by the source basis, rows
    by the target basis.
    ``columns`` hold ``int``s, ``denom`` times the true values, as
    ``delta_matrix`` computes them on packed codes: each column lists its
    rows in the order the elementary-cochain rule first reaches them.
    ``kernel`` and the boundary echelons read them: scaling by
    denom > 0 changes no primitive integer row, so neither the echelon nor
    the kernel changes.  ``triplets`` gives the exact values, each
    ``Fraction(value, denom)``, sorted by (row, col).
    """

    source: GradedSlice
    target: GradedSlice
    denom: int
    columns: tuple[dict[int, int], ...]

    def kernel(self) -> list[dict[int, Fraction]]:
        return linalg.kernel_basis(_transpose(self.columns, self.target.dim), self.source.dim)

    def triplets(self) -> list[tuple[int, int, Fraction]]:
        out = []
        for col, column in enumerate(self.columns):
            out.extend((row, col, Fraction(value, self.denom)) for row, value in column.items())
        out.sort()
        return out


def _transpose(columns: Sequence[Mapping[int, Scalar]], nrows: int) -> list[dict]:
    """The sparse rows of a matrix given by its sparse columns."""
    out: list[dict] = [dict() for _ in range(nrows)]
    for col, column in enumerate(columns):
        for row, val in column.items():
            out[row][col] = val
    return out


def _left_slice(reason: str) -> ValueError:
    return ValueError(
        "coboundary left the filtered slice; the filters do not cut a "
        f"subcomplex for this structure ({reason})"
    )


def delta_matrix(
    S: PoissonStructure,
    source: GradedSlice,
    target: Optional[GradedSlice] = None,
) -> DeltaMatrix:
    """Matrix of the coboundary on a slice; target degree is d + r - 1.

    Requires homogeneous entries of a single degree r and checks that every
    image lands inside the filtered target slice.  Each column is the
    elementary-cochain rule that ``delta`` applies, in target coordinates,
    kept as the integers that the structure's ``_Coboundary`` gives: each
    image code is looked up in the target's positions by code
    (``_packed_index``, computed for this call and kept nowhere), and the
    first one missing is named, decoded, in the error.
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
    if source.n != S.n:
        raise ValueError("variable count mismatch")
    if (target.n, target.k, target.d) != (source.n, source.k + 1, source.d + r - 1):
        raise _left_slice("cochain does not match the slice shape")
    cob = _coboundary(S)
    columns = []
    if source.dim:
        # 2^w exceeds every exponent of the source, the image and the target
        w = cob.width(max(source.d, source.d + r - 1, target.d))
        index = _packed_index(target, w)
        low = (1 << (source.n * w)) - 1
        for (T, a), code in zip(source.basis, _packed_index(source, w)):
            column: dict[int, int] = {}
            for key, value in _elementary_image(code & low, a, *cob[T, w]).items():
                if not value:
                    continue
                pos = index.get(key)
                if pos is None:
                    U, exps = _decode(S.n, w, key)
                    raise _left_slice(f"cochain term {U}:{exps} lies outside the slice")
                column[pos] = value
            columns.append(column)
    return DeltaMatrix(source, target, cob.denom, tuple(columns))


# -- cohomology reports -----------------------------------------------------------


class ComplexInvariantError(RuntimeError):
    """A dimension identity of the complex failed: a bug, never a property of the input."""


class CohomologyRow(NamedTuple):
    k: int
    d: int
    dim_chi: int
    dim_Z: int
    dim_B: int

    @property
    def dim_H(self) -> int:
        return self.dim_Z - self.dim_B

    def as_dict(self) -> dict[str, int]:
        return {**self._asdict(), "dim_H": self.dim_H}


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


def diagonal_weights(S: PoissonStructure) -> Optional[tuple[int, ...]]:
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
    """Weight-0 blocks, dimension counts and boundary echelons of one complex.

    ``_complex`` makes one per structure and filter and keeps it on the
    structure, so every cohomology query of a session shares it.  It keeps,
    per degree, the monomials grouped by block weight and the ``counts``
    table, and per (k, d) the block and the boundary echelon; an outgoing
    rank is read off the boundary echelon one step up.  It keeps no
    coboundary matrix: ``boundaries`` builds the echelon one step below
    first, assembles once the columns of the block matrix that clearing
    keeps, from the structure's shared ``_Coboundary``, and seeds its
    echelon with their integer ``columns``.

    ``block(k, d)``, the only slice it builds, is the weight-0 block of slice
    (k, d): cut by the diagonal weights of the structure when the caller
    sets no filter, and otherwise (or with no diagonal coordinate) the
    filtered slice itself.  ``counts(d)`` sizes every slice of degree d and
    its block from the same monomial groups, with the rank that the acyclic
    blocks of weight != 0 carry.  ``row(k, d)`` is the table row of slice
    (k, d), and ``boundaries(k, d)`` the echelon of the coboundaries inside
    block (k, d).
    """

    def __init__(
        self,
        S: PoissonStructure,
        weights: Optional[tuple[int, ...]],
        banned: frozenset[int],
    ) -> None:
        self.S = S
        self.r = S.homogeneous_degree()
        self.weights = weights
        self.banned = banned
        self._blocks: dict[tuple[int, int], GradedSlice] = {}
        self._monomials: dict[int, dict[int, list[Exponents]]] = {}
        self._counts: dict[int, list[tuple[int, int, int]]] = {}
        self._boundaries: dict[tuple[int, int], linalg.SpanTracker] = {}

    @cached_property
    def block_weights(self) -> Optional[tuple[int, ...]]:
        if self.weights is None and not self.banned:
            return diagonal_weights(self.S)
        return self.weights

    @cached_property
    def slot_counts(self) -> list[Counter]:
        """slot_counts[k][s]: the allowed k-element slot tuples of block weight sum s."""
        n = self.S.n
        w = self.block_weights or (0,) * n
        return _weight_counts([w[i] for i in range(n) if i not in self.banned], n)

    def monomials(self, d: int) -> dict[int, list[Exponents]]:
        """The degree-d monomials of the blocks, grouped by block weight once per d."""
        if d not in self._monomials:
            self._monomials[d] = _monomials_by_weight(self.S.n, d, self.block_weights, self.banned)
        return self._monomials[d]

    def block(self, k: int, d: int) -> GradedSlice:
        """``slice_basis`` of (k, d) under the block filter, from ``monomials(d)``."""
        key = (k, d)
        if key not in self._blocks:
            self._blocks[key] = _graded_slice(
                self.S.n, k, d, self.block_weights, self.banned, self.banned, self.monomials(d)
            )
        return self._blocks[key]

    def counts(self, d: int) -> list[tuple[int, int, int]]:
        """(dim, block dim, R) of slice (k, d) for k = 0..n, checked once per d.

        The block dim sums, over the block weights s, the slot tuples of
        weight sum s (``slot_counts``) times the monomials of weight s
        (``monomials(d)``).  Where the complex split the slice itself, its
        dim is C(n, k) C(n + d - 1, d); otherwise the block is the slice.
        The blocks of weight != 0 are acyclic, so their coboundary out of
        (k, d) has rank R(k, d) = (dim - block dim)(k, d) - R(k - 1, d), with
        R(-1, d) = 0; each R must lie in 0..(dim - block dim), and R(n, d)
        must vanish, where the complex of those blocks ends.  A diagonal
        coordinate forces r = 1, so d stays fixed along k.
        """
        if d not in self._counts:
            n, groups = self.S.n, self.monomials(d)
            split = self.block_weights != self.weights
            table, R = [], 0
            for k, tuples in enumerate(self.slot_counts):
                block_dim = sum(count * len(groups.get(s, ())) for s, count in tuples.items())
                dim = comb(n, k) * comb(n + d - 1, d) if split and d >= 0 else block_dim
                off_block = dim - block_dim
                R = off_block - R
                if not 0 <= R <= off_block:
                    raise ComplexInvariantError(
                        f"weight blocks fail at k={k}, d={d}: their coboundary would "
                        f"have rank {R} on {off_block} cochains"
                    )
                table.append((dim, block_dim, R))
            if R:
                raise ComplexInvariantError(
                    f"weight blocks do not close at d={d}: rank {R} left over at k={n}"
                )
            self._counts[d] = table
        return self._counts[d]

    def dim(self, k: int, d: int) -> int:
        return self.counts(d)[k][0] if 0 <= k <= self.S.n else 0

    def block_dim(self, k: int, d: int) -> int:
        return self.counts(d)[k][1] if 0 <= k <= self.S.n else 0

    def outgoing_rank(self, k: int, d: int) -> int:
        """Rank of the coboundary out of slice (k, d): the boundary rank one step up, plus R."""
        if not 0 <= k < self.S.n:
            return 0
        _, block_dim, R = self.counts(d)[k]
        block_rank = self.boundaries(k + 1, d + self.r - 1).rank if block_dim else 0
        return block_rank + R

    def row(self, k: int, d: int) -> CohomologyRow:
        """dim chi / Z / B of slice (k, d); checks rank-nullity and B <= Z."""
        dim_chi = self.dim(k, d)
        out_rank = self.outgoing_rank(k, d)
        if not 0 <= out_rank <= dim_chi:
            raise ComplexInvariantError(
                f"rank-nullity fails at k={k}, d={d}: the outgoing coboundary "
                f"has rank {out_rank} on a slice of dimension {dim_chi}"
            )
        dim_Z = dim_chi - out_rank
        prev_d = d - self.r + 1
        dim_B = self.outgoing_rank(k - 1, prev_d) if k and prev_d >= 0 else 0
        if dim_B > dim_Z:
            raise ComplexInvariantError(
                f"coboundaries exceed cocycles at k={k}, d={d}: the complex is broken"
            )
        return CohomologyRow(k, d, dim_chi, dim_Z, dim_B)

    def boundaries(self, k: int, d: int) -> linalg.SpanTracker:
        """Echelon of the image of the coboundary from (k - 1, d - r + 1) in block (k, d).

        Cleared (notes/decisions.md, entry 11): the source cochains at the
        pivot columns of the incoming echelon ``boundaries(k - 1, d - r + 1)``
        are left out, since the other source cochains and the incoming
        coboundaries span the source block and delta kills the coboundaries.
        So ``delta_matrix`` assembles the columns of the other cochains alone,
        on a sub-basis of the source block, and the echelon, built once from
        their integer ``columns`` in ``linalg.SpanTracker``'s column order and
        kept, spans the same image as the whole matrix.  Its rank is also the
        outgoing block rank of (k - 1, d - r + 1).
        """
        key = (k, d)
        if key not in self._boundaries:
            prev_d = d - self.r + 1
            columns: Sequence[dict[int, int]] = ()
            if k > 0 and prev_d >= 0:
                source = self.block(k - 1, prev_d)
                # no coboundary lands in arity 0, so k = 1 clears nothing
                cleared: set[int] = set()
                if k > 1 and source.basis:
                    cleared = self.boundaries(k - 1, prev_d).pivot_columns()
                if cleared:
                    source = source._replace(basis=tuple(
                        pair for pos, pair in enumerate(source.basis) if pos not in cleared
                    ))
                if source.basis:
                    columns = delta_matrix(self.S, source, self.block(k, d)).columns
            self._boundaries[key] = linalg.SpanTracker(columns)
        return self._boundaries[key]


def _complex(
    S: PoissonStructure,
    weights: Optional[Sequence[int]],
    exclude_vars: Iterable[int],
) -> _SliceCache:
    """The one ``_SliceCache`` of S for this filter, made on first use."""
    key = (_checked_weights(S.n, weights), _checked_vars(S.n, exclude_vars))
    if key not in S._complexes:
        S._complexes[key] = _SliceCache(S, *key)
    return S._complexes[key]


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
    module docstring and ``_SliceCache.counts``).  Besides rank-nullity
    and B <= Z, each such rank must lie in range and the ranks must vanish
    at k = n, where the complex of the other blocks ends.
    """
    cache = _complex(S, weights, exclude_vars)
    ds = sorted(set(ds))
    return CohomologyReport(cache.row(k, d) for k in sorted(set(ks)) for d in ds)


def cocycle_representatives(
    S: PoissonStructure,
    k: int,
    d: int,
    weights: Optional[Sequence[int]] = None,
    exclude_vars: Iterable[int] = (),
) -> list[MultiDerivation]:
    """A basis of a complement of the coboundaries inside the cocycles.

    Each representative is fixed only up to a nonzero scalar and a
    coboundary; it is not normalised to any published generator.  Kernel
    vectors of the other blocks are coboundaries, so the greedy pick runs
    on the weight-0 block alone, and only when dim H is not 0.
    """
    cache = _complex(S, weights, exclude_vars)
    dim_H = cache.row(k, d).dim_H
    if not dim_H:
        return []
    block = cache.block(k, d)
    kernel_vectors = delta_matrix(S, block, cache.block(k + 1, d + cache.r - 1)).kernel()
    boundaries = cache.boundaries(k, d)
    if len(kernel_vectors) - boundaries.rank != dim_H:
        raise ComplexInvariantError(
            f"the block at k={k}, d={d} has {len(kernel_vectors)} cocycles and "
            f"{boundaries.rank} coboundaries, but dim H is {dim_H}: the complex is broken"
        )
    # the first dim_H independent kernel vectors fill Z, so the rest are dependent
    complement = boundaries.copy()
    reps = []
    for vec in kernel_vectors:
        if len(reps) == dim_H:
            break
        if complement.add(vec):
            reps.append(block.from_vector(vec))
    return reps


def cochain_in_coboundaries(
    S: PoissonStructure,
    phi: MultiDerivation,
    d: Optional[int] = None,
    weights: Optional[Sequence[int]] = None,
    exclude_vars: Iterable[int] = (),
) -> bool:
    """Exact class-triviality test of a cochain of slice (phi.k, d).

    With phi_0 its part in the weight-0 block, phi is a coboundary exactly
    when phi_0 reduces to zero against the boundary echelon and
    delta(phi - phi_0) = 0, since cocycles of weight != 0 are coboundaries;
    phi - phi_0 is made of the terms the block's basis does not hold.
    With a filter, or no diagonal coordinate, the block is the whole slice.
    The filter and the shape are checked first, also for a zero cochain, and
    the counts of degree d before the block is read.
    """
    cache = _complex(S, weights, exclude_vars)
    if phi.n != S.n:
        raise ValueError("cochain does not match the slice shape")
    if phi.is_zero:
        return True
    if d is None:
        degrees = {p.total_degree() for p in phi.values.values()}
        if len(degrees) != 1:
            raise ValueError("cochain is not degree-homogeneous; pass d explicitly")
        d = degrees.pop()
    cache.counts(d)
    index = {pair: pos for pos, pair in enumerate(cache.block(phi.k, d).basis)}
    vec: dict[int, Fraction] = {}
    rest: dict[IndexTuple, dict[Exponents, Fraction]] = {}
    for idx, poly in phi.values.items():
        for exps, coeff in poly.terms.items():
            pos = index.get((idx, exps))
            if pos is not None:
                vec[pos] = coeff
            elif cache.block_weights == cache.weights or sum(exps) != d:
                raise ValueError(f"cochain term {idx}:{exps} lies outside the slice")
            else:
                rest.setdefault(idx, {})[exps] = coeff
    phi_rest = MultiDerivation._trusted(
        S.n, phi.k, {idx: Polynomial._trusted(S.n, terms) for idx, terms in rest.items()}
    )
    return delta(S, phi_rest).is_zero and not cache.boundaries(phi.k, d).residual(vec)


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
        # f is set only at X_3 and above, so the term {X_i, f(X_1)} is zero
        slot = phi.values.get((one, i), Polynomial.zero(n))
        candidate = S.bracket_coordinate(one, f_of(i)) - slot
        if not candidate.is_zero:
            f_values[(i + 1,)] = candidate
    correction = delta(S, MultiDerivation(n, 1, f_values))
    result = phi - correction
    for i in range(2, n - 1):
        if (one, i) in result.values:
            raise ValueError("normalization failed to clear a ladder slot")
    return result
