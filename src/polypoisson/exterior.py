"""Exterior forms with polynomial coefficients on affine coordinate space.

A k-form is a mapping from strictly increasing k-tuples of internal variable
indices (the basis forms dX_{i1} ^ ... ^ dX_{ik}) to nonzero polynomial
coefficients.  Wedge product, exterior derivative and contraction by
coordinate vector fields are all exact.  Sums, wedges and derivatives
collect their terms with ``poly.add_into``, the accumulator shared by every
sparse type, so no zero coefficient is stored.  Forms and multiderivations
validate their index tuples with the same ``_checked_terms``.

Evaluation is sparse where the integrability test needs it.  A wedge into
the top degree n pairs each term only with the other factor's term at its
complement.  ``d`` differentiates each coefficient only in the variables it
contains.  ``interior_coordinates`` is the one contraction: it contracts by
several coordinate fields at once, in ascending index order, reading each
result term off the one source term it comes from.

Degrees outside 0..n are represented by the zero form rather than an error,
so iterated contractions can be chained without case splits.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence, Union

from .poly import Polynomial, Scalar, add_into, format_poly

IndexTuple = tuple[int, ...]


@dataclass(frozen=True)
class Shuffle:
    """A (p,q)-shuffle: a permutation increasing on its first p and last q slots."""

    perm: IndexTuple  # permutation of 0..p+q-1, as images in order
    sign: int


def _perm_sign(perm: Sequence[int]) -> int:
    inversions = sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )
    return -1 if inversions % 2 else 1


def shuffles(p: int, q: int) -> list[Shuffle]:
    """All C(p+q, p) shuffles of {0..p+q-1}, ordered by their first run."""
    if p < 0 or q < 0:
        raise ValueError("shuffle parts must be non-negative")
    everything = range(p + q)
    out = []
    for first in itertools.combinations(everything, p):
        second = tuple([i for i in everything if i not in first])
        perm = first + second
        out.append(Shuffle(perm, _perm_sign(perm)))
    return out


def _merge_sign(a: IndexTuple, b: IndexTuple) -> tuple[int, Optional[IndexTuple]]:
    """Sign to sort the concatenation of two increasing tuples; None if they collide."""
    sign = 1
    merged = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return 0, None
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining entries of a
            if (len(a) - i) % 2:
                sign = -sign
            merged.append(b[j])
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return sign, tuple(merged)


def _checked_terms(
    n: int, k: int, terms: Mapping[IndexTuple, Polynomial]
) -> Iterator[tuple[IndexTuple, Polynomial]]:
    """The (index tuple, polynomial) pairs of a k-form or k-derivation, validated.

    Each tuple has length k and strictly increasing entries in 0..n-1, and
    each polynomial is in n variables.
    """
    for idx, value in terms.items():
        idx = tuple(idx)
        if len(idx) != k:
            raise ValueError(f"index tuple {idx} has length != {k}")
        if any(not 0 <= i < n for i in idx):
            raise ValueError(f"index out of range in {idx}")
        if any(idx[a] >= idx[a + 1] for a in range(k - 1)):
            raise ValueError(f"index tuple {idx} is not strictly increasing")
        if value.n != n:
            raise ValueError(f"value at {idx} is in {value.n} variables, not {n}")
        yield idx, value


class ExteriorForm:
    """Immutable exterior k-form with Polynomial coefficients."""

    __slots__ = ("n", "k", "terms")

    def __init__(
        self,
        n: int,
        k: int,
        terms: Optional[Mapping[IndexTuple, Polynomial]] = None,
    ) -> None:
        self.n = n
        self.k = k
        self.terms: dict[IndexTuple, Polynomial] = {}
        if terms and 0 <= k <= n:
            add_into(self.terms, _checked_terms(n, k, terms))

    @classmethod
    def _trusted(cls, n: int, k: int, terms: dict[IndexTuple, Polynomial]) -> "ExteriorForm":
        """Wrap terms that are already valid and free of zeros, without checks."""
        form = cls.__new__(cls)
        form.n, form.k, form.terms = n, k, terms
        return form

    @classmethod
    def zero(cls, n: int, k: int) -> "ExteriorForm":
        return cls(n, k)

    @classmethod
    def basis(cls, n: int, idx: Sequence[int], coeff: Union[Polynomial, Scalar] = 1) -> "ExteriorForm":
        if not isinstance(coeff, Polynomial):
            coeff = Polynomial.constant(n, coeff)
        return cls(n, len(idx), {tuple(idx): coeff})

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "ExteriorForm":
        """A 0-form."""
        return cls(p.n, 0, {(): p})

    # -- structure -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ExteriorForm)
            and self.n == other.n
            and self.k == other.k
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.n, self.k, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"ExteriorForm({self.n}, {self.k}, {self!s})"

    def __str__(self) -> str:
        return format_form(self)

    def _check(self, other: "ExteriorForm") -> None:
        if self.n != other.n:
            raise ValueError(f"mismatched variable count: {self.n} vs {other.n}")

    def __add__(self, other: "ExteriorForm") -> "ExteriorForm":
        self._check(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.k != other.k:
            raise ValueError(f"cannot add forms of degree {self.k} and {other.k}")
        return ExteriorForm._trusted(
            self.n, self.k, add_into(dict(self.terms), other.terms.items())
        )

    def __sub__(self, other: "ExteriorForm") -> "ExteriorForm":
        return self + (-other)

    def __neg__(self) -> "ExteriorForm":
        return ExteriorForm._trusted(self.n, self.k, {i: -c for i, c in self.terms.items()})

    def __mul__(self, scalar: Union[Polynomial, Scalar]) -> "ExteriorForm":
        if isinstance(scalar, Polynomial):
            return ExteriorForm(
                self.n, self.k, {i: c * scalar for i, c in self.terms.items()}
            )
        s = Fraction(scalar)
        if not s:
            return ExteriorForm.zero(self.n, self.k)
        terms = {i: c * s for i, c in self.terms.items()}
        return ExteriorForm._trusted(self.n, self.k, terms)

    __rmul__ = __mul__

    # -- exterior calculus ----------------------------------------------

    def wedge(self, other: "ExteriorForm") -> "ExteriorForm":
        self._check(other)
        k = self.k + other.k
        if k > self.n:
            return ExteriorForm.zero(self.n, k)
        if k == self.n:
            return self._wedge_top(other)

        def products() -> Iterator[tuple[IndexTuple, Polynomial]]:
            for ia, ca in self.terms.items():
                for ib, cb in other.terms.items():
                    sign, merged = _merge_sign(ia, ib)
                    if merged is not None:
                        c = ca * cb
                        yield merged, c if sign > 0 else -c

        return ExteriorForm._trusted(self.n, k, add_into({}, products()))

    def _wedge_top(self, other: "ExteriorForm") -> "ExteriorForm":
        """Wedge into degree n: each term meets only the other's term at its complement.

        Sorting ia + complement(ia) takes sum(ia) - k(k-1)/2 transpositions.
        """
        n, k = self.n, self.k
        total = Polynomial.zero(n)
        for ia, ca in self.terms.items():
            # tuple() of a list allocates the final size at once; one grown
            # from a generator is resized, and the freed tuples pile up in
            # CPython's per-size free lists, which raised peak memory
            cb = other.terms.get(tuple([i for i in range(n) if i not in ia]))
            if cb is None:
                continue
            c = ca * cb
            total = total - c if (sum(ia) - k * (k - 1) // 2) % 2 else total + c
        return ExteriorForm._trusted(n, n, {tuple(range(n)): total} if total else {})

    def d(self) -> "ExteriorForm":
        """Exterior derivative; satisfies d(d(a)) = 0."""

        def partials() -> Iterator[tuple[IndexTuple, Polynomial]]:
            for idx, coeff in self.terms.items():
                used = {i for exps in coeff.terms for i, e in enumerate(exps) if e}
                for i in sorted(used):
                    sign, merged = _merge_sign((i,), idx)
                    if merged is not None:
                        dc = coeff.partial(i)
                        yield merged, dc if sign > 0 else -dc

        return ExteriorForm._trusted(self.n, self.k + 1, add_into({}, partials()))

    def interior_coordinates(self, idxs: Sequence[int]) -> "ExteriorForm":
        """Contraction by d/dX_i for each i of the increasing tuple ``idxs``.

        The contractions apply in ascending order, the smallest index first.
        Each result term R is read off the one term J = R + idxs by lookup, with
        sign (-1)^#{(i, r) : i in idxs, r in R, r < i}: the cost is the number
        of (k - len(idxs))-subsets of the other indices, not the number of
        terms.
        """
        idxs = tuple(idxs)
        m = len(idxs)
        out: dict[IndexTuple, Polynomial] = {}
        if m <= self.k:
            taken = set(idxs)
            free = [i for i in range(self.n) if i not in taken]
            for rest in itertools.combinations(free, self.k - m):
                coeff = self.terms.get(tuple(sorted(idxs + rest)))
                if coeff is None:
                    continue
                flips = sum(m - bisect.bisect_right(idxs, r) for r in rest)
                out[rest] = -coeff if flips % 2 else coeff
        return ExteriorForm._trusted(self.n, max(self.k - m, 0), out)


def format_form(form: ExteriorForm, first_index: int = 1) -> str:
    """Text form like ``X2*dX3 - 2*X3*dX2``; tuples listed descending."""
    if form.is_zero:
        return "0"
    if form.k == 0:
        return format_poly(form.terms[()], first_index)
    pieces = []
    for idx in sorted(form.terms, reverse=True):
        coeff = form.terms[idx]
        basis = "^".join(f"dX{i + first_index}" for i in idx)
        text = format_poly(coeff, first_index)
        if text == "1":
            body, sign = basis, "+"
        elif text == "-1":
            body, sign = basis, "-"
        elif len(coeff.terms) == 1:
            sign = "-" if text.startswith("-") else "+"
            body = f"{text.lstrip('-')}*{basis}"
        else:
            sign, body = "+", f"({text})*{basis}"
        if not pieces:
            pieces.append(body if sign == "+" else "-" + body)
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)
