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

Both start from the bivector's nonzero entries and enumerate only nonzero
products, never the index triples, so their work follows the products and
not the n^3 / 6 triples.  Each differentiates a coefficient at most once per
variable it contains, through ``poly._partial`` (the rule of
``Polynomial.partial`` and ``ExteriorForm.d`` too), and only where the
partial meets another entry.  The trisum multiplies dP_ab/dX_r by each
nonzero P_rf with f not in {a, b}.  The form route builds no ``ExteriorForm``.  It keys
Omega's terms by the pair each omits, reading the term that omits (i, j)
off the entry P_{ij} with the sign of ``_complement``.  A partial of
Omega[rest] in X_i lands in d(alpha_T) for each T = rest + {r} with {i, r}
a pair of Omega, merged per pair; each T then wedges its pairs with Omega.
The closed-form signs are derived from ``interior_coordinates``,
``ExteriorForm.d``, the wedge and ``_complement`` (``notes/decisions.md``,
entry 7).

Both run on ``int`` coefficients.  ``_integer_multiple`` scales the bivector
by L, the lcm of its coefficient denominators; every criterion is
homogeneous of degree 2 in the bivector, so L * P has the same verdict and
obstructions L^2 times those of P (``notes/decisions.md``, entry 6).  The
trisum adds every product term of a triple straight into one dict and
divides a nonzero result by L^2, so it returns ``Fraction`` coefficients;
the form route returns only a boolean.  ``_integrability`` computes a
bivector's pass (L, L * P, its trisum obstructions through ``_trisum``)
once, on first use, and keeps it on the bivector, so both public routes and
the coboundary tables of ``cohomology`` read one scaling and one trisum.
The form route is never kept: every call runs it afresh on the kept L * P
(``notes/decisions.md``, entry 10).

The two must always agree; ``poisson.verify`` calls both public routes and
aborts if they do not.  ``poisson.graded_integrability`` reads its graded
pieces off ``jacobi_trisum`` too.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Mapping, Optional

from .exterior import ExteriorForm, IndexTuple, _checked_terms, _complement
from .poly import Polynomial, Scalar, _partial, add_into, format_internal


class MultiDerivation:
    """A skew k-derivation stored by its values on coordinate k-tuples.

    ``values`` maps strictly increasing tuples of internal variable indices
    to polynomials; a 0-derivation is a single polynomial stored under ().
    Anything with k > n is the zero object.  ``values`` is written only while
    the object is made, which is what lets a bivector keep its integrability
    pass (``_integrability``) in the private slot ``_pass``.
    """

    __slots__ = ("n", "k", "values", "_pass")

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
        self._pass: Optional[tuple[int, MultiDerivation, tuple]] = None

    @classmethod
    def _trusted(
        cls, n: int, k: int, values: dict[IndexTuple, Polynomial]
    ) -> "MultiDerivation":
        """Wrap values that are already valid and free of zeros, without checks."""
        md = cls.__new__(cls)
        md.n, md.k, md.values, md._pass = n, k, values, None
        return md

    @classmethod
    def zero(cls, n: int, k: int) -> "MultiDerivation":
        return cls(n, k)

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


def bivector_from_entries(
    n: int, entries: Mapping[tuple[int, int], Polynomial]
) -> MultiDerivation:
    """Build a bivector from entries P_{ij} on pairs i < j of internal indices.

    A pair with i >= j is a ``ValueError``, raised by the index check that
    every multiderivation applies.
    """
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
        complement, sign = _complement(idx, n)
        terms[complement] = val if sign > 0 else -val
    # distinct tuples have distinct complements, so no two terms collide
    return ExteriorForm._trusted(n, n - k, terms)


def phi_inverse(form: ExteriorForm) -> MultiDerivation:
    """Inverse of phi_map: read an (n-k)-form back as a k-derivation."""
    n = form.n
    k = n - form.k
    # sorting complement + idx costs (-1)^(k(n-k)) on top of sorting idx + complement
    flip = -1 if k * (n - k) % 2 else 1
    values: dict[IndexTuple, Polynomial] = {}
    for idx, coeff in form.terms.items():
        complement, sign = _complement(idx, n)
        values[complement] = coeff if sign * flip > 0 else -coeff
    return MultiDerivation(n, k, values)


# -- integrability -----------------------------------------------------------


def _integer_multiple(biv: MultiDerivation) -> tuple[int, MultiDerivation]:
    """(L, L * biv) with L the lcm of the coefficient denominators.

    The multiple stores ``int`` coefficients.  Every integrability criterion is
    homogeneous of degree 2 in the bivector, so the multiple gets the same
    verdict and its obstructions are L^2 times those of ``biv``.  Only
    ``_integrability`` calls it; the integrability routes and the coboundary
    tables of ``cohomology`` read the multiple kept there.
    """
    n = biv.n
    lcm = 1
    for p in biv.values.values():
        for c in p.terms.values():
            lcm = math.lcm(lcm, c.denominator)
    values = {
        idx: Polynomial._trusted(
            n, {e: c.numerator * (lcm // c.denominator) for e, c in p.terms.items()}
        )
        for idx, p in biv.values.items()
    }
    return lcm, MultiDerivation._trusted(n, biv.k, values)


def _integrability(biv: MultiDerivation) -> tuple[int, MultiDerivation, tuple]:
    """The integrability pass (L, L * biv, the trisum obstructions) of a bivector.

    Computed on first use and kept on ``biv``.  It cannot go stale: the
    package writes a multiderivation's values, and a polynomial's terms,
    only in their constructors, and every bivector made by ``+``, ``-``,
    ``*``, the constructor or ``_trusted`` starts without a pass.  The
    obstructions are kept as a tuple, so no caller can change them.
    """
    kept = biv._pass
    if kept is None:
        lcm, multiple = _integer_multiple(biv)
        kept = biv._pass = (lcm, multiple, tuple(_trisum(lcm, multiple)))
    return kept


def jacobi_trisum(
    biv: MultiDerivation,
) -> list[tuple[int, int, int, Polynomial]]:
    """The Jacobi obstruction polynomials, one per index triple i < j < k.

    Each is sum_r P_{ri} dP_{jk}/dX_r + P_{rj} dP_{ki}/dX_r + P_{rk} dP_{ij}/dX_r;
    the bivector is integrable iff all of them vanish.  Empty for n < 3.
    The sum starts from the entries: each P_ab is differentiated at most once
    in each variable X_r it contains, and dP_ab/dX_r meets only the nonzero
    P_rf with f not in {a, b}, read from an adjacency list built once.  That
    product lands on the triple sorted(f, a, b), with sign -1 exactly when
    a < f < b.  So the work follows the nonzero products, not the n^3 / 6
    triples.  The sum runs on the integer multiple L * biv, each term added
    straight into one dict per triple; the nonzero triples come out in
    sorted (``itertools.combinations``) order, each divided by L^2.  It is
    computed once per bivector (``_integrability``); each call returns a new
    list of the kept obstructions.
    """
    if biv.k != 2:
        raise ValueError("not a bivector")
    return list(_integrability(biv)[2])


def _trisum(lcm: int, multiple: MultiDerivation) -> list[tuple[int, int, int, Polynomial]]:
    """``jacobi_trisum`` of the bivector whose integer multiple is (lcm, multiple)."""
    n = multiple.n
    scale = lcm * lcm
    # row[r] lists (f, terms of P_{rf}) with P_{rf} != 0
    row: list[list[tuple[int, dict]]] = [[] for _ in range(n)]
    for (a, b), p in multiple.values.items():
        row[a].append((b, p.terms))
        row[b].append((a, {e: -c for e, c in p.terms.items()}))
    sums: dict[tuple[int, int, int], dict] = {}
    for (a, b), p in multiple.values.items():
        for r in itertools.compress(range(n), map(any, zip(*p.terms))):
            partial = None
            for f, p_rf in row[r]:
                # P_rf dP_ab/dX_r is a term of the triple's cyclic order f, a, b
                if f < a:
                    triple, sign = (f, a, b), 1
                elif a < f < b:
                    triple, sign = (a, f, b), -1
                elif f > b:
                    triple, sign = (a, b, f), 1
                else:
                    continue
                if partial is None:
                    partial = _partial(p.terms, r)
                acc = sums.setdefault(triple, {})
                for ep, cp in p_rf.items():
                    cp *= sign
                    for el, cl in partial:
                        e = tuple(map(int.__add__, ep, el))
                        acc[e] = acc.get(e, 0) + cp * cl
    out = []
    for triple in sorted(sums):
        obstruction = {e: Fraction(c, scale) for e, c in sums[triple].items() if c}
        if obstruction:
            out.append((*triple, Polynomial._trusted(n, obstruction)))
    return out


def integrability_via_forms(biv: MultiDerivation) -> bool:
    """Exterior-calculus integrability test; must match the trisum verdict.

    Omega = Phi(L * P) is keyed by the pair each of its terms omits: the term
    omitting (i, j) is (-1)^(i + j - 1) L * P_ij, read straight off the
    multiple with the sign of ``_complement``.  For a triple T, alpha_T is
    the contraction of Omega by the coordinates outside T, and the route
    tests d(alpha_T) ^ Omega = 0 for every T.  It starts from the terms of
    Omega: each Omega[rest] is differentiated at most once in each variable
    X_i it contains, and that partial lands in d(alpha_T) for T = rest + {r}, once
    for each partner r of i (a pair {i, r} that some term omits) outside
    rest.  No other pair of d(alpha_T) meets a term of Omega in the top
    wedge.  The closed-form signs are those of ``notes/decisions.md``,
    entry 7:

    * contraction: alpha_r = (-1)^#{x not in T : x > r} * Omega[T - r];
    * d: d(alpha_r)/dX_i lands on dX_i ^ dX_r, with sign + if i < r and
      - if i > r, merged per pair before any product;
    * top wedge: the term at (s, t) meets Omega[(s, t)] with sign
      (-1)^(s + t - 1), applied while merging.

    Then each triple wedges its merged pairs with Omega, every product term
    added into one ``int`` accumulator; a nonzero coefficient there means the
    bivector is not Poisson.  The route runs afresh on every call, on the
    multiple L * P kept by ``_integrability``.
    """
    if biv.k != 2:
        raise ValueError("not a bivector")
    n = biv.n
    if n < 3:
        raise ValueError("form criterion needs at least three variables")
    multiple = _integrability(biv)[1]
    # omega[pair]: the coefficient of the term of Omega that omits pair, which
    # is L * P_pair with the sign that sorts pair + its complement
    omega = {pair: p.terms if _complement(pair, n)[1] > 0
             else {e: -c for e, c in p.terms.items()}
             for pair, p in multiple.values.items()}
    # partners[i]: each r such that some term of Omega omits {i, r}
    partners: list[list[int]] = [[] for _ in range(n)]
    for s, t in omega:
        partners[s].append(t)
        partners[t].append(s)
    # dalpha[T][(s, t)]: the coefficient of dX_s ^ dX_t in d(alpha_T), times
    # the top-wedge sign (-1)^(s + t - 1) of the pair
    dalpha: dict[tuple[int, int, int], dict[tuple[int, int], dict]] = {}
    for rest, terms in omega.items():
        u, v = rest
        for i in itertools.compress(range(n), map(any, zip(*terms))):
            partial = None
            for r in partners[i]:
                # T = rest + {r}; #{x not in T : x > r} = n - 1 - r - #{t in rest : t > r}
                if r < u:
                    triple, above = (r, u, v), n - 3 - r
                elif u < r < v:
                    triple, above = (u, r, v), n - 2 - r
                elif r > v:
                    triple, above = (u, v, r), n - 1 - r
                else:
                    continue
                # flip: contraction exponent + d exponent (0 or 1) + top-wedge i + r - 1
                if i < r:
                    pair, flip = (i, r), above + i + r - 1
                else:
                    pair, flip = (r, i), above + i + r
                if partial is None:
                    partial = _partial(terms, i)
                add_into(dalpha.setdefault(triple, {}).setdefault(pair, {}),
                         partial if flip % 2 == 0 else ((e, -c) for e, c in partial))
    for pairs in dalpha.values():
        total: dict = {}
        for pair, coeff in pairs.items():
            for e1, c1 in coeff.items():
                for e2, c2 in omega[pair].items():
                    e = tuple(map(int.__add__, e1, e2))
                    total[e] = total.get(e, 0) + c1 * c2
        if any(total.values()):
            return False
    return True
