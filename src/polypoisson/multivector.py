"""Skew multiderivations of the polynomial ring and their exterior-form mirror.

A k-derivation is a skew k-linear map on polynomials obeying the Leibniz
rule in every slot; it is determined by its values on strictly increasing
k-tuples of coordinates, which is exactly what we store.  k = 2 gives
bivectors, the raw material of Poisson structures.

The correspondence ``phi_map`` sends a k-derivation to an (n-k)-form by
summing over (k, n-k)-shuffles with their signs; ``phi_inverse`` undoes it.
Integrability of a bivector can be tested two independent ways:

* ``jacobi_trisum`` -- the cyclic sum of P_{ri} dP_{jk}/dX_r over all index
  triples, which must vanish identically;
* ``integrability_via_forms`` -- the exterior-calculus criterion
  d(alpha) ^ Omega = 0 for every contraction alpha of Omega by n-3
  coordinate fields; for three variables alpha is Omega itself and the
  criterion reads d(Omega) ^ Omega = 0.

Both touch only the bivector's nonzero entries.  A triple none of whose
three pairs holds an entry has a zero trisum and a zero contraction, so
both routes visit only the triples that meet an entry, lazily and in
``itertools.combinations`` order.  The trisum sums r only over the nonzero
P_{r,first}.  The form route reads each contraction, a 1-form with at most
three terms, straight off Omega, and its top-degree wedge with Omega pairs
complementary terms only.  Each route finds its entries on its own: the
trisum from the bivector, the form route from the terms of Omega.

The two must always agree; the verification layer aborts if they do not.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .exterior import ExteriorForm, IndexTuple, _checked_terms, _perm_sign
from .poly import Polynomial, Scalar, add_into, format_internal


class MultiDerivation:
    """A skew k-derivation stored by its values on coordinate k-tuples.

    ``values`` maps strictly increasing tuples of internal variable indices
    to polynomials; a 0-derivation is a single polynomial stored under ().
    Anything with k > n is the zero object.
    """

    __slots__ = ("n", "k", "values")

    def __init__(
        self,
        n: int,
        k: int,
        values: Optional[Mapping[IndexTuple, Polynomial]] = None,
    ) -> None:
        if k < 0:
            raise ValueError("arity must be non-negative")
        self.n = n
        self.k = k
        self.values: dict[IndexTuple, Polynomial] = {}
        if values and k <= n:
            add_into(self.values, _checked_terms(n, k, values))

    @classmethod
    def _trusted(
        cls, n: int, k: int, values: dict[IndexTuple, Polynomial]
    ) -> "MultiDerivation":
        """Wrap values that are already valid and free of zeros, without checks."""
        md = cls.__new__(cls)
        md.n, md.k, md.values = n, k, values
        return md

    @classmethod
    def zero(cls, n: int, k: int) -> "MultiDerivation":
        return cls(n, k)

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "MultiDerivation":
        return cls(p.n, 0, {(): p})

    @classmethod
    def elementary(cls, n: int, idx: Sequence[int], poly: Polynomial) -> "MultiDerivation":
        return cls(n, len(idx), {tuple(idx): poly})

    # -- basics ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.values

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MultiDerivation)
            and self.n == other.n
            and self.k == other.k
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.n, self.k, frozenset(self.values.items())))

    def __repr__(self) -> str:
        """Values by tuple, naming variables by internal index, ``x0``..``x{n-1}``."""
        vals = {idx: format_internal(p) for idx, p in sorted(self.values.items())}
        return f"MultiDerivation(n={self.n}, k={self.k}, {vals})"

    def __add__(self, other: "MultiDerivation") -> "MultiDerivation":
        if self.n != other.n or self.k != other.k:
            raise ValueError("mismatched multiderivations")
        return MultiDerivation._trusted(
            self.n, self.k, add_into(dict(self.values), other.values.items())
        )

    def __sub__(self, other: "MultiDerivation") -> "MultiDerivation":
        return self + (-other)

    def __neg__(self) -> "MultiDerivation":
        return MultiDerivation._trusted(self.n, self.k, {i: -p for i, p in self.values.items()})

    def __mul__(self, scalar: Scalar) -> "MultiDerivation":
        s = Fraction(scalar)
        if not s:
            return MultiDerivation.zero(self.n, self.k)
        values = {i: p * s for i, p in self.values.items()}
        return MultiDerivation._trusted(self.n, self.k, values)

    __rmul__ = __mul__

    def evaluate_first(self, first: Polynomial, coords: Sequence[int]) -> Polynomial:
        """Evaluate on (first, X_{c1}, ..., X_{c_{k-1}}) with coordinate tails.

        Fast path used by the coboundary: only stored tuples containing all of
        ``coords`` plus one extra slot contribute, via a single partial of
        ``first``.
        """
        coords = tuple(coords)
        if len(coords) != self.k - 1:
            raise ValueError("wrong number of coordinate arguments")
        if len(set(coords)) != len(coords):
            return Polynomial.zero(self.n)
        cset = set(coords)
        total = Polynomial.zero(self.n)
        tail_sign = _perm_sign(tuple(sorted(range(len(coords)), key=lambda a: coords[a])))
        for idx, val in self.values.items():
            extra = [i for i in idx if i not in cset]
            if len(extra) != 1 or not cset.issubset(idx):
                continue
            t = extra[0]
            dfirst = first.partial(t)
            if dfirst.is_zero:
                continue
            pos = idx.index(t)
            contrib = val * dfirst
            if pos % 2:
                contrib = -contrib
            if tail_sign < 0:
                contrib = -contrib
            total = total + contrib
        return total


def bivector_from_entries(
    n: int, entries: Mapping[tuple[int, int], Polynomial]
) -> MultiDerivation:
    """Build a bivector from entries P_{ij} on pairs i < j of internal indices."""
    for i, j in entries:
        if i >= j:
            raise ValueError(f"entry ({i},{j}) must have i < j")
    return MultiDerivation(n, 2, entries)


def bivector_entry(biv: MultiDerivation, i: int, j: int) -> Polynomial:
    """Signed entry P_{ij} with P_{ji} = -P_{ij} and P_{ii} = 0."""
    if biv.k != 2:
        raise ValueError("not a bivector")
    if i == j:
        return Polynomial.zero(biv.n)
    if i < j:
        return biv.values.get((i, j), Polynomial.zero(biv.n))
    p = biv.values.get((j, i))
    return Polynomial.zero(biv.n) if p is None else -p


# -- the form correspondence ------------------------------------------------


def phi_map(md: MultiDerivation) -> ExteriorForm:
    """The (n-k)-form of a k-derivation via the signed shuffle sum."""
    n, k = md.n, md.k
    if k > n:
        return ExteriorForm.zero(n, 0)
    terms: dict[IndexTuple, Polynomial] = {}
    for idx, val in md.values.items():
        complement = tuple([i for i in range(n) if i not in idx])
        sign = _perm_sign(idx + complement)
        terms[complement] = val if sign > 0 else -val
    return ExteriorForm(n, n - k, terms)


def phi_inverse(form: ExteriorForm) -> MultiDerivation:
    """Inverse of phi_map: read an (n-k)-form back as a k-derivation."""
    n = form.n
    k = n - form.k
    values: dict[IndexTuple, Polynomial] = {}
    for idx, coeff in form.terms.items():
        complement = tuple([i for i in range(n) if i not in idx])
        sign = _perm_sign(complement + idx)
        values[complement] = coeff if sign > 0 else -coeff
    return MultiDerivation(n, k, values)


# -- integrability -----------------------------------------------------------


def bracket_with_coordinate(biv: MultiDerivation, i: int, p: Polynomial) -> Polynomial:
    """{X_i, p} for the bracket of a bivector: sum_j P_{ij} dp/dX_j."""
    total = Polynomial.zero(biv.n)
    for (a, b), val in biv.values.items():
        if a == i:
            dp = p.partial(b)
            if not dp.is_zero:
                total = total + val * dp
        elif b == i:
            dp = p.partial(a)
            if not dp.is_zero:
                total = total - val * dp
    return total


def _triples_meeting(
    n: int, pairs: Iterable[Sequence[int]]
) -> Iterator[tuple[int, int, int]]:
    """Index triples i < j < k containing one of the pairs, in combinations order.

    Lazy, one triple at a time: a triple with no pair among its three is skipped
    without being built.
    """
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for a, b in pairs:
        nbrs[a].add(b)
        nbrs[b].add(a)
    for i in range(n):
        for j in range(i + 1, n):
            if j in nbrs[i]:
                yield from ((i, j, k) for k in range(j + 1, n))
            else:
                yield from ((i, j, k) for k in sorted(nbrs[i] | nbrs[j]) if k > j)


def jacobi_trisum(
    biv: MultiDerivation,
) -> list[tuple[int, int, int, Polynomial]]:
    """The Jacobi obstruction polynomials, one per index triple i < j < k.

    Each is sum_r P_{ri} dP_{jk}/dX_r + P_{rj} dP_{ki}/dX_r + P_{rk} dP_{ij}/dX_r;
    the bivector is integrable iff all of them vanish.  Empty for n < 3.
    Only triples holding a nonzero entry are visited, and r runs only over
    the nonzero entries P_{r,first}, read from an adjacency list built once.
    """
    if biv.k != 2:
        raise ValueError("not a bivector")
    n = biv.n
    # column[f] lists (r, P_{rf}) with P_{rf} != 0, r ascending as in a loop over all r
    column: list[list[tuple[int, Polynomial]]] = [[] for _ in range(n)]
    for (a, b), val in biv.values.items():
        column[b].append((a, val))
        column[a].append((b, -val))
    for entries in column:
        entries.sort(key=lambda entry: entry[0])
    out = []
    for i, j, k in _triples_meeting(n, biv.values):
        total = Polynomial.zero(n)
        for first, pair in ((i, (j, k)), (j, (k, i)), (k, (i, j))):
            target = bivector_entry(biv, *pair)
            if target.is_zero:
                continue
            for r, p_rf in column[first]:
                dt = target.partial(r)
                if not dt.is_zero:
                    total = total + p_rf * dt
        if not total.is_zero:
            out.append((i, j, k, total))
    return out


def integrability_via_forms(biv: MultiDerivation) -> bool:
    """Exterior-calculus integrability test; must match the trisum verdict."""
    if biv.k != 2:
        raise ValueError("not a bivector")
    n = biv.n
    if n < 3:
        raise ValueError("form criterion needs at least three variables")
    omega = phi_map(biv)
    # for n = 3 nothing is contracted, alpha = Omega and the one triple is (0, 1, 2);
    # alpha = i(idxs)Omega is nonzero exactly when the triple T left out of
    # idxs contains the pair {i, j} missing from some term of Omega
    everything = range(n)
    pairs = ([i for i in everything if i not in J] for J in omega.terms)
    for triple in _triples_meeting(n, pairs):
        alpha = omega.interior_coordinates([i for i in everything if i not in triple])
        if not alpha.d().wedge(omega).is_zero:
            return False
    return True
