"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in n variables is a mapping from exponent tuples (length n,
one non-negative integer per variable) to nonzero ``Fraction`` coefficients.
The zero polynomial is the empty mapping.  Nothing here ever touches
floating point.

Variables carry internal indices 0..n-1.  Text input and output use labels
``X<k>`` where the label of internal index 0 is configurable: ``X1`` by
default, ``X0`` for the (n+1)-variable rings used by the rigid-algebra
catalog entries.  Bare reprs carry no label base, so they name variables
by internal index in lower case, ``x0``..``x{n-1}``.

Monomial order is graded lexicographic: higher total degree first, ties
broken by comparing exponent tuples, so the variable with the smallest
internal index weighs heaviest (X1 > X2 > ... in label space).  Basis
enumeration is ascending in this order; printing lists terms descending,
leading term first.  Parsing the printed form reproduces the polynomial
bit-exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

Exponents = tuple[int, ...]
Scalar = Union[int, Fraction]


class ParseError(ValueError):
    """Syntax error in a polynomial expression, with the offending position."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def add_into(out: dict, items: Iterable[tuple]) -> dict:
    """Add each (key, value) pair into ``out``, dropping a key whose sum is zero.

    Uses only ``+`` and truthiness, so the values may be ``Fraction``s or
    ``Polynomial``s; a zero value never lands in ``out``.  Returns ``out``.
    """
    for key, value in items:
        s = out.get(key)
        s = value if s is None else s + value
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    """Sort key realizing graded lex order with X1 > X2 > ... ."""
    return (sum(exps), exps)


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Optional[Mapping[Exponents, Scalar]] = None) -> None:
        if n < 0:
            raise ValueError("variable count must be non-negative")
        self.n = n
        self.terms: dict[Exponents, Fraction] = {}
        if terms:
            for exps in terms:
                if len(exps) != n:
                    raise ValueError(f"exponent tuple {exps} has length != {n}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
            add_into(self.terms, ((tuple(e), Fraction(c)) for e, c in terms.items()))

    @classmethod
    def _trusted(cls, n: int, terms: dict[Exponents, Fraction]) -> "Polynomial":
        """Wrap terms that are already valid and free of zeros, without checks."""
        p = cls.__new__(cls)
        p.n, p.terms = n, terms
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n)

    @classmethod
    def constant(cls, n: int, value: Scalar) -> "Polynomial":
        return cls(n, {(0,) * n: Fraction(value)})

    @classmethod
    def variable(cls, n: int, i: int) -> "Polynomial":
        """The polynomial for the variable with internal index ``i``."""
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range for n={n}")
        exps = [0] * n
        exps[i] = 1
        return cls(n, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, n: int, exps: Sequence[int], coeff: Scalar = 1) -> "Polynomial":
        return cls(n, {tuple(exps): Fraction(coeff)})

    # -- ring operations ----------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise ValueError(f"mismatched variable count: {self.n} vs {other.n}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial._trusted(self.n, add_into(dict(self.terms), other.terms.items()))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.n, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, Polynomial):
            self._check(other)
            return Polynomial._trusted(self.n, add_into({}, (
                (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                for e1, c1 in self.terms.items()
                for e2, c2 in other.terms.items()
            )))
        c = Fraction(other)
        if not c:
            return Polynomial.zero(self.n)
        return Polynomial._trusted(self.n, {e: c * v for e, v in self.terms.items()})

    def __rmul__(self, other: Scalar) -> "Polynomial":
        return self * other

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial.constant(self.n, 1)
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        """``Polynomial(n, ...)`` naming variables by internal index, ``x0``..``x{n-1}``."""
        return f"Polynomial({self.n}, {format_internal(self)})"

    def __str__(self) -> str:
        return format_poly(self)

    # -- calculus and gradings ----------------------------------------

    def partial(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to internal variable i."""
        if not 0 <= i < self.n:
            raise ValueError(f"variable index {i} out of range for n={self.n}")
        # lowering exponent i is injective on terms, so no two terms collide
        out: dict[Exponents, Fraction] = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e:
                out[exps[:i] + (e - 1,) + exps[i + 1 :]] = c * e
        return Polynomial._trusted(self.n, out)

    def total_degree(self) -> int:
        """Maximal term degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def homogeneous_component(self, d: int) -> "Polynomial":
        return Polynomial(self.n, {e: c for e, c in self.terms.items() if sum(e) == d})

    def homogeneous_degrees(self) -> list[int]:
        return sorted({sum(e) for e in self.terms})

    def is_homogeneous(self, d: Optional[int] = None) -> bool:
        degs = self.homogeneous_degrees()
        if not degs:
            return True
        return len(degs) == 1 and (d is None or degs[0] == d)

    def weight(self, weights: Sequence[int]) -> Optional[int]:
        """Common weight of all terms, or None if not weight-homogeneous.

        The weight of a monomial is sum(exponent[i] * weights[i]); the zero
        polynomial has weight 0 by convention.
        """
        if len(weights) != self.n:
            raise ValueError("weight vector length must equal the variable count")
        found: set[int] = set()
        for exps in self.terms:
            found.add(sum(e * w for e, w in zip(exps, weights)))
            if len(found) > 1:
                return None
        return found.pop() if found else 0

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))


# -- monomial enumeration ---------------------------------------------


def _compositions(n: int, d: int) -> Iterator[Exponents]:
    if n == 0:
        if d == 0:
            yield ()
        return
    if n == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in _compositions(n - 1, d - first):
            yield (first,) + rest


def _checked_vars(n: int, indices: Iterable[int]) -> frozenset[int]:
    """The excluded variable indices as a set; each must lie in 0..n-1."""
    out = frozenset(indices)
    bad = sorted(i for i in out if not 0 <= i < n)
    if bad:
        names = ", ".join(map(str, bad))
        raise ValueError(f"excluded variable index {names} out of range 0..{n - 1}")
    return out


def monomial_basis(n: int, d: int, exclude_vars: Iterable[int] = ()) -> list[Exponents]:
    """All degree-d monomials in n variables, ascending in graded lex order.

    ``exclude_vars`` drops monomials touching any of the given internal
    variable indices, each in 0..n-1.  The unfiltered count is C(n+d-1, d).
    """
    banned = _checked_vars(n, exclude_vars)
    if d < 0:
        return []
    out = [
        exps
        for exps in _compositions(n, d)
        if not (banned and any(exps[i] for i in banned))
    ]
    out.sort(key=grlex_key)
    return out


# -- text format -------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<var>X\d+)|(?P<op>[*/^+-]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
            break
        if m.lastgroup:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


def parse_poly(text: str, n: int, first_index: int = 1) -> Polynomial:
    """Parse a polynomial expression such as ``2*X1^2*X3 - 1/2*X2``.

    Terms are products of rational constants and variable powers joined by
    ``*``; variables are labelled ``X<first_index>`` .. ``X<first_index+n-1>``.
    Every term after the first starts with ``+`` or ``-``; juxtaposed factors
    such as ``X1X2`` or ``2 3`` are a ``ParseError``, not a sum.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial expression", 0)
    result = Polynomial.zero(n)
    i = 0

    def peek(kind: str) -> bool:
        return i < len(tokens) and tokens[i][0] == kind

    while i < len(tokens):
        if i and not (tokens[i][0] == "op" and tokens[i][1] in "+-"):
            raise ParseError("expected '+' or '-' before the next term", tokens[i][2])
        sign = 1
        # leading sign of the term
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
            if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
                raise ParseError("consecutive signs", tokens[i][2])
        if i >= len(tokens):
            raise ParseError("dangling sign", tokens[-1][2])
        coeff = Fraction(sign)
        exps = [0] * n
        expect_factor = True
        while expect_factor:
            if peek("num"):
                num = int(tokens[i][1])
                i += 1
                if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "/":
                    i += 1
                    if not peek("num"):
                        raise ParseError("expected denominator", tokens[i - 1][2])
                    den = int(tokens[i][1])
                    if den == 0:
                        raise ParseError("zero denominator", tokens[i][2])
                    i += 1
                    coeff *= Fraction(num, den)
                else:
                    coeff *= num
            elif peek("var"):
                label = int(tokens[i][1][1:])
                idx = label - first_index
                if not 0 <= idx < n:
                    raise ParseError(
                        f"variable X{label} out of range (expected X{first_index}.."
                        f"X{first_index + n - 1})",
                        tokens[i][2],
                    )
                i += 1
                power = 1
                if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "^":
                    i += 1
                    if not peek("num"):
                        raise ParseError("expected positive exponent", tokens[i - 1][2])
                    power = int(tokens[i][1])
                    if power == 0:
                        raise ParseError("exponent must be positive", tokens[i][2])
                    i += 1
                exps[idx] += power
            else:
                raise ParseError("expected a factor", tokens[i][2])
            if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "*":
                i += 1
                expect_factor = True
            else:
                expect_factor = False
        result = result + Polynomial.monomial(n, exps, coeff)
    return result


def _format_term(exps: Exponents, coeff: Fraction, first_index: int) -> tuple[str, str]:
    """Return (sign, body) for one printed term."""
    sign = "-" if coeff < 0 else "+"
    mag = abs(coeff)
    factors = [
        f"X{i + first_index}" + (f"^{e}" if e > 1 else "")
        for i, e in enumerate(exps)
        if e
    ]
    if not factors:
        return sign, str(mag)
    if mag != 1:
        factors.insert(0, str(mag))
    return sign, "*".join(factors)


def format_poly(p: Polynomial, first_index: int = 1) -> str:
    """Canonical text form: terms descending in graded lex order."""
    if p.is_zero:
        return "0"
    items = sorted(p.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)
    pieces = []
    for k, (exps, coeff) in enumerate(items):
        sign, body = _format_term(exps, coeff, first_index)
        if k == 0:
            pieces.append(body if sign == "+" else "-" + body)
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


def format_internal(p: Polynomial) -> str:
    """Text form naming variables by internal index, ``x0``..``x{n-1}``, for reprs."""
    return format_poly(p, 0).replace("X", "x")
