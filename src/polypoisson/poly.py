"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in n variables is a mapping from exponent tuples (length n,
one non-negative integer per variable) to nonzero ``Fraction`` coefficients.
The zero polynomial is the empty mapping.  Nothing here ever touches
floating point.  Polynomials with ``int`` coefficients exist only inside
the integrability routes of ``multivector`` and ``poisson`` and the
coboundary tables of ``cohomology``, which work on an integer multiple of
the bivector; none leaves them.

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

import itertools
import re
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

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


def _partial(terms: Mapping, i: int) -> list:
    """The terms of d/dX_i of the polynomial whose terms are ``terms``.

    Lowering exponent i is injective on terms, so no two terms collide.
    """
    return [(e[:i] + (e[i] - 1,) + e[i + 1 :], e[i] * c) for e, c in terms.items() if e[i]]


def grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    """Sort key realizing graded lex order with X1 > X2 > ... ."""
    return (sum(exps), exps)


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients.

    Public ring operators: ``+``, ``-``, ``*`` (also by a scalar) and ``**``
    to a non-negative integer power, which only the tests call.
    """

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
        return Polynomial._trusted(self.n, dict(_partial(self.terms, i)))

    def total_degree(self) -> int:
        """Maximal term degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def homogeneous_degrees(self) -> list[int]:
        return sorted({sum(e) for e in self.terms})


# -- monomial enumeration ---------------------------------------------


def _checked_vars(n: int, indices: Iterable[int]) -> frozenset[int]:
    """The excluded variable indices as a set; each must lie in 0..n-1."""
    out = frozenset(indices)
    bad = sorted(i for i in out if not 0 <= i < n)
    if bad:
        names = ", ".join(map(str, bad))
        raise ValueError(f"excluded variable index {names} out of range 0..{n - 1}")
    return out


def _checked_weights(n: int, weights: Optional[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """The weight vector as a tuple, or None; one ``int`` per variable (float sums are inexact)."""
    if weights is None:
        return None
    out = tuple(weights)
    if len(out) != n:
        raise ValueError(f"weight vector has {len(out)} entries, expected n={n}")
    for i, value in enumerate(out):
        if type(value) is not int:
            raise ValueError(f"weight {value!r} at index {i} is not an int")
    return out


def _monomials_by_weight(
    n: int, d: int, weights: Sequence[int], banned: frozenset[int], lo: int, hi: int
) -> dict[int, list[Exponents]]:
    """The degree-d monomials free of ``banned`` with weight in lo..hi, grouped by weight,
    each ascending in grlex order: past a prefix, by the next raised variable, highest index
    first, then by its exponent, lowest first.  The walk stops a branch once the suffix weight
    minima and maxima show that its degrees left miss lo..hi; it recurses min(d, n) deep at most.
    """
    allowed = [i for i in range(n) if i not in banned]
    if d <= 0 or not allowed:
        return {0: [(0,) * n]} if d == 0 and lo <= 0 <= hi else {}
    w = [weights[i] for i in allowed]
    lows, highs = ([*itertools.accumulate(w[::-1], f)][::-1] for f in (min, max))
    last, out, exps = len(allowed) - 1, {}, [0] * n

    def walk(start: int, left: int, weight: int) -> None:
        for j in range(last, start - 1, -1):
            i, wj = allowed[j], w[j]
            for a in range(1 if j < last else left, left + 1):
                exps[i], rest, total = a, left - a, weight + a * wj
                if not rest and lo <= total <= hi:
                    out.setdefault(total, []).append(tuple(exps))
                elif rest and lo - rest * highs[j + 1] <= total <= hi - rest * lows[j + 1]:
                    walk(j + 1, rest, total)
            exps[i] = 0

    walk(0, d, 0)
    del walk  # it refers to itself: free the cycle now, not at a later collection
    return out


def monomial_basis(n: int, d: int, exclude_vars: Iterable[int] = ()) -> list[Exponents]:
    """All degree-d monomials in n variables, ascending in graded lex order: the weight-0
    group of ``_monomials_by_weight`` under zero weights.  ``exclude_vars`` drops monomials
    touching any of the given internal variable indices, each in 0..n-1.  The unfiltered
    count is C(n+d-1, d).
    """
    return _monomials_by_weight(n, d, (0,) * n, _checked_vars(n, exclude_vars), 0, 0).get(0, [])


# -- text format -------------------------------------------------------

# `bad` is a character no token starts with, or a non-ASCII digit after X (`\d`
# takes every Unicode digit); `\Z`, unlike `$`, matches only at len(text)
_TOKEN = re.compile(
    r"\s*(?:(?P<num>[0-9]+)|(?P<var>X[0-9]+)|(?P<op>[*/^+-])|(?P<end>\Z)|(?:X(?=\d))?(?P<bad>.))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each token, ending with one ``end`` token at len(text)."""
    tokens = []
    pos = 0
    while not tokens or tokens[-1][0] != "end":
        m = _TOKEN.match(text, pos)
        kind, pos = m.lastgroup, m.end()
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
    return tokens


def _token_int(token: tuple[str, str, int]) -> int:
    """The integer a number token, or a variable token's label, spells."""
    try:
        return int(token[1].lstrip("X"))
    except ValueError:  # more digits than int() converts from a string
        raise ParseError("number too long", token[2]) from None


def parse_poly(text: str, n: int, first_index: int = 1) -> Polynomial:
    """Parse a polynomial expression such as ``2*X1^2*X3 - 1/2*X2``.

    Terms are products of rational constants and variable powers joined by
    ``*``; variables are labelled ``X<first_index>`` .. ``X<first_index+n-1>``.
    Every term after the first starts with ``+`` or ``-``; juxtaposed factors
    such as ``X1X2`` or ``2 3`` are a ``ParseError``, not a sum.
    """
    tokens = _tokenize(text)
    if tokens[0][0] == "end":
        raise ParseError("empty polynomial expression", 0)
    i = 0

    def take(kind: str, ops: str = "") -> Optional[tuple[str, str, int]]:
        """Consume and return the next token if it has ``kind`` (and is one of ``ops``)."""
        nonlocal i
        token = tokens[i]
        if token[0] != kind or (ops and token[1] not in ops):
            return None
        i += 1
        return token

    terms: dict[Exponents, Fraction] = {}
    while not take("end"):
        sign = take("op", "+-")
        if i > 0 and not sign:
            raise ParseError("expected '+' or '-' before the next term", tokens[i][2])
        if take("op", "+-"):
            raise ParseError("consecutive signs", tokens[i - 1][2])
        if sign and tokens[i][0] == "end":
            raise ParseError("dangling sign", sign[2])
        coeff = Fraction(-1 if sign and sign[1] == "-" else 1)
        exps = [0] * n
        while True:
            if token := take("num"):
                coeff *= _token_int(token)
                if slash := take("op", "/"):
                    den = take("num")
                    if not den:
                        raise ParseError("expected denominator", slash[2])
                    d = _token_int(den)
                    if not d:
                        raise ParseError("zero denominator", den[2])
                    coeff /= d
            elif token := take("var"):
                label = _token_int(token)
                idx = label - first_index
                if not 0 <= idx < n:
                    raise ParseError(
                        f"variable X{label} out of range (expected X{first_index}.."
                        f"X{first_index + n - 1})",
                        token[2],
                    )
                power = 1
                if caret := take("op", "^"):
                    exponent = take("num")
                    if not exponent:
                        raise ParseError("expected positive exponent", caret[2])
                    power = _token_int(exponent)
                    if not power:
                        raise ParseError("exponent must be positive", exponent[2])
                exps[idx] += power
            else:
                raise ParseError("expected a factor", tokens[i][2])
            if not take("op", "*"):
                break
        add_into(terms, ((tuple(exps), coeff),))
    return Polynomial._trusted(n, terms)


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
