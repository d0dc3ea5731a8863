"""Exterior forms with polynomial coefficients on affine coordinate space.

A k-form is a mapping from strictly increasing k-tuples of internal variable
indices (the basis forms dX_{i1} ^ ... ^ dX_{ik}) to nonzero polynomial
coefficients.  Wedge product, exterior derivative and contraction by
coordinate vector fields are all exact.  Sums, wedges and derivatives
collect their terms with ``poly.add_into``, the accumulator shared by every
sparse type, so no zero coefficient is stored.  Forms and multiderivations
validate their index tuples with the same ``_checked_terms``.

Complements follow one rule, ``_complement``: the increasing complement of
an increasing index tuple idx, and the sign that sorts idx + complement,
(-1)^(sum(idx) - k(k-1)/2).  Contraction, the form correspondence of
``multivector`` and the signs of Omega in its form route of integrability
all read it.

Evaluation is sparse where the form-route coboundary needs it.  That route
contracts and differentiates forms and pairs the results with
multiderivations; it wedges nothing.  Every wedge merges each pair of terms
through ``_merge_sign``, which counts the inversions between two increasing
tuples; contraction reads its signs there too.
``d`` differentiates each coefficient only in the variables it contains,
through ``poly._partial``, the one partial-derivative rule.
``interior_coordinates`` is the one contraction: it contracts by several
coordinate fields at once, in ascending index order, reading each result
term off the one source term it comes from.

Degrees outside 0..n are represented by the zero form rather than an error,
so iterated contractions can be chained without case splits.
"""

from __future__ import annotations

import bisect
import itertools
from fractions import Fraction
from typing import Collection, Iterator, Mapping, Optional, Sequence, Union

from .poly import Polynomial, Scalar, _partial, add_into, format_poly

IndexTuple = tuple[int, ...]


def _complement(idx: Collection[int], n: int) -> tuple[IndexTuple, int]:
    """The increasing complement rest of idx in 0..n-1, and the sign that
    sorts idx + rest.

    ``idx`` holds distinct indices, as an increasing tuple or as a set, which
    is read in increasing order.  Its a-th entry passes the idx[a] - a
    entries of rest below it, so the sort takes sum(idx) - k(k-1)/2
    transpositions.  Sorting rest + idx instead moves k entries past n - k
    more, for (-1)^(k(n-k)) on top.
    """
    # tuple() of a list allocates the final size at once; one grown from a
    # generator is resized, and the freed tuples pile up in CPython's
    # per-size free lists, which raised peak memory
    rest = tuple([i for i in range(n) if i not in idx])
    k = len(idx)
    return rest, -1 if (sum(idx) - k * (k - 1) // 2) % 2 else 1


def _merge_sign(a: IndexTuple, b: IndexTuple) -> tuple[int, Optional[IndexTuple]]:
    """Sign to sort the concatenation of two increasing tuples; None if they collide.

    Each entry r of b passes the entries of a above it, so the sort takes
    sum(len(a) - bisect_right(a, r)) transpositions.
    """
    if not set(a).isdisjoint(b):
        return 0, None
    flips = sum(len(a) - bisect.bisect_right(a, r) for r in b)
    return -1 if flips % 2 else 1, tuple(sorted(a + b))


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

        def products() -> Iterator[tuple[IndexTuple, Polynomial]]:
            for ia, ca in self.terms.items():
                for ib, cb in other.terms.items():
                    sign, merged = _merge_sign(ia, ib)
                    if merged is not None:
                        c = ca * cb
                        yield merged, c if sign > 0 else -c

        return ExteriorForm._trusted(self.n, k, add_into({}, products()))

    def d(self) -> "ExteriorForm":
        """Exterior derivative; satisfies d(d(a)) = 0.

        Each term of each partial derivative is added straight into the
        coefficient it lands on.
        """
        n = self.n
        out: dict[IndexTuple, dict] = {}
        for idx, coeff in self.terms.items():
            # the variables the coefficient contains, ascending
            for i in itertools.compress(range(n), map(any, zip(*coeff.terms))):
                # dX_i ^ dX_idx: dX_i moves past the entries of idx below i
                at = bisect.bisect_left(idx, i)
                if at < len(idx) and idx[at] == i:
                    continue
                sign = -1 if at % 2 else 1
                add_into(out.setdefault(idx[:at] + (i,) + idx[at:], {}),
                         ((e, sign * c) for e, c in _partial(coeff.terms, i)))
        terms = {idx: Polynomial._trusted(n, total) for idx, total in out.items() if total}
        return ExteriorForm._trusted(n, self.k + 1, terms)

    def interior_coordinates(self, idxs: Sequence[int]) -> "ExteriorForm":
        """Contraction by d/dX_i for each i of the increasing tuple ``idxs``.

        The contractions apply in ascending order, the smallest index first.
        Each result term R is read off the one term J = R + idxs by lookup, with
        the ``_merge_sign`` of idxs and R: the cost is the number
        of (k - len(idxs))-subsets of the other indices, not the number of
        terms.  ``idxs`` that is not strictly increasing within 0..n-1 is a
        ``ValueError``, as for the index tuples of a form.
        """
        idxs = tuple(idxs)
        m = len(idxs)
        taken = set(idxs)
        if list(idxs) != sorted(taken):
            raise ValueError(f"index tuple {idxs} is not strictly increasing")
        if idxs and not (0 <= idxs[0] and idxs[-1] < self.n):
            raise ValueError(f"index out of range in {idxs}")
        if not m:
            return self
        out: dict[IndexTuple, Polynomial] = {}
        if m <= self.k:
            # a set keeps each membership test of the complement O(1)
            free, _ = _complement(taken, self.n)
            for rest in itertools.combinations(free, self.k - m):
                sign, merged = _merge_sign(idxs, rest)
                coeff = self.terms.get(merged)
                if coeff is not None:
                    out[rest] = coeff if sign > 0 else -coeff
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
