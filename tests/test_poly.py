import gc
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polypoisson.poly import (
    ParseError,
    Polynomial,
    _monomials_by_weight,
    format_poly,
    grlex_key,
    monomial_basis,
    parse_poly,
)

from conftest import random_poly
from oracles import compositions, homogeneous_component, weight


def V(n, i):
    return Polynomial.variable(n, i)


# -- parsing and printing ------------------------------------------------------


def test_parse_single_variable():
    p = parse_poly("X2", 3)
    assert p == V(3, 1)


def test_parse_two_terms():
    p = parse_poly("2*X1^2*X3 - 1/2*X2", 3)
    assert p.terms.get((2, 0, 1), 0) == 2
    assert p.terms.get((0, 1, 0), 0) == Fraction(-1, 2)
    assert len(p.terms) == 2


def test_parse_cancellation():
    assert parse_poly("X1*X2 - X2*X1", 2).is_zero


def test_parse_constants_and_signs():
    assert parse_poly("3", 2) == Polynomial.constant(2, 3)
    assert parse_poly("-1/2", 2) == Polynomial.constant(2, Fraction(-1, 2))
    assert parse_poly("+X1", 2) == V(2, 0)
    with pytest.raises(ParseError):
        parse_poly("X1 + - X2", 2)


def test_parse_variable_out_of_range():
    with pytest.raises(ParseError):
        parse_poly("X4", 3)
    with pytest.raises(ParseError):
        parse_poly("X0", 3)
    # zero-based labelling admits X0
    assert parse_poly("X0", 3, first_index=0) == V(3, 0)


def test_parse_rejects_malformed():
    for bad in ("", "X", "2**X1", "X1^", "X1^0", "1/0", "X1 X2",
                "X1*", "2*", "X1^2*", "X1 *", "1" * 5000, "X1^" + "1" * 5000):
        with pytest.raises(ParseError):
            parse_poly(bad, 2)


PARSE_ERRORS = [
    # (text, message, position) for n=3, labels X1..X3
    ("", "empty polynomial expression", 0),
    (" \t\n", "empty polynomial expression", 0),
    ("(X1", "unexpected character '('", 0),
    ("X1 (", "unexpected character '('", 3),
    ("X1 +   $", "unexpected character '$'", 7),
    # only ASCII digits spell numbers and labels; `\d` took every Unicode digit
    ("\u0663*X1", "unexpected character '\u0663'", 0),
    ("X\u0661", "unexpected character '\u0661'", 1),
    ("X1 X2", "expected '+' or '-' before the next term", 3),
    ("X1 + -X2", "consecutive signs", 5),
    ("X1 +", "dangling sign", 3),
    ("1/X1", "expected denominator", 1),
    ("X2 - 1/0", "zero denominator", 7),
    ("X1*X4", "variable X4 out of range (expected X1..X3)", 3),
    ("X1^X2", "expected positive exponent", 2),
    ("X1^0", "exponent must be positive", 3),
    ("2**X1", "expected a factor", 2),
    ("X1 * ", "expected a factor", 5),
    ("1" * 5000, "number too long", 0),
    ("X1^" + "1" * 5000, "number too long", 3),
]


def test_parse_error_messages_and_positions():
    for text, message, pos in PARSE_ERRORS:
        with pytest.raises(ParseError) as info:
            parse_poly(text, 3)
        assert (str(info.value), info.value.pos) == (f"{message} (at position {pos})", pos)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="0123456789X*/^+- \t\n(\u0661\u0663\u0967", max_size=24))
def test_parse_returns_a_polynomial_or_raises_parse_error(text):
    # no text over the parser's alphabet, with a foreign '(' and non-ASCII
    # digits, escapes as another exception; an unexpected character is reported
    # at its own position, and a non-ASCII digit is never read as a number
    try:
        result = parse_poly(text, 3)
    except ParseError as e:
        if str(e).startswith("unexpected character"):
            assert str(e).startswith(f"unexpected character {text[e.pos]!r}")
        return
    assert isinstance(result, Polynomial)
    assert text.isascii()


def test_print_canonical_order_and_roundtrip(rng):
    for _ in range(200):
        n = rng.randint(1, 4)
        p = random_poly(n, 4, rng)
        text = format_poly(p)
        assert parse_poly(text, n) == p
    assert format_poly(Polynomial.zero(2)) == "0"


def test_print_examples():
    p = parse_poly("2*X1^2*X3 - 1/2*X2", 3)
    assert format_poly(p) == "2*X1^2*X3 - 1/2*X2"
    assert format_poly(parse_poly("3*X2*X3", 3)) == "3*X2*X3"
    assert format_poly(V(3, 0) - V(3, 1)) == "X1 - X2"


def test_print_zero_based_labels():
    p = parse_poly("X0*X5", 6, first_index=0)
    assert format_poly(p, first_index=0) == "X0*X5"


# -- arithmetic ----------------------------------------------------------------


def test_product_difference_of_squares():
    n = 3
    assert (V(n, 0) + V(n, 1)) * (V(n, 0) - V(n, 1)) == V(n, 0) ** 2 - V(n, 1) ** 2


def test_power_is_the_repeated_product():
    p = random_poly(3, 2, random.Random(7))
    assert p ** 0 == Polynomial.constant(3, 1)
    assert p ** 1 == p and p ** 3 == p * p * p
    assert Polynomial.zero(3) ** 0 == Polynomial.constant(3, 1)
    with pytest.raises(ValueError, match="negative power"):
        p ** -1


def test_product_with_zero_and_scalars():
    p = random_poly(3, 3, random.Random(5))
    assert (p * Polynomial.zero(3)).is_zero
    assert (Fraction(1, 2) * V(3, 1)) * (2 * V(3, 2)) == V(3, 1) * V(3, 2)


def test_mismatched_variable_count():
    with pytest.raises(ValueError):
        V(2, 0) * V(3, 0)


@st.composite
def polys(draw, n=3, max_degree=4):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, max_degree)) for _ in range(n))
        if sum(exps) > max_degree:
            continue
        terms[exps] = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
    return Polynomial(n, terms)


@settings(max_examples=120, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=80, deadline=None)
@given(polys(), polys())
def test_leibniz_rule_for_partials(p, q):
    for i in range(3):
        assert (p * q).partial(i) == p * q.partial(i) + q * p.partial(i)


@settings(max_examples=80, deadline=None)
@given(polys())
def test_partials_commute(p):
    for i in range(3):
        for j in range(i + 1, 3):
            assert p.partial(i).partial(j) == p.partial(j).partial(i)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), polys(n=n))),
       st.sampled_from([0, 1]))
def test_parse_inverts_format(case, first_index):
    n, p = case
    assert parse_poly(format_poly(p, first_index), n, first_index) == p


def factors(n):
    """Text of one factor: an integer, a fraction or a variable power."""
    return st.one_of(
        st.integers(0, 99).map(str),
        st.tuples(st.integers(0, 99), st.integers(1, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
        st.tuples(st.integers(1, n), st.integers(1, 5)).map(
            lambda t: f"X{t[0]}" + (f"^{t[1]}" if t[1] > 1 else "")
        ),
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(factors(3), min_size=1, max_size=3), factors(3),
       st.sampled_from(["", "-", "+"]), st.sampled_from([" ", "  ", "\t"]))
def test_parse_rejects_juxtaposed_factors(product, factor, sign, gap):
    parse_poly(sign + "*".join(product + [factor]), 3)  # the product itself is fine
    with pytest.raises(ParseError):
        parse_poly(sign + "*".join(product) + gap + factor, 3)


def test_parse_juxtaposition_is_not_addition():
    for bad in ("X1X2", "2 3", "3 X1", "X1^2X2", "1/2 X1 + X2"):
        with pytest.raises(ParseError):
            parse_poly(bad, 2)


def test_partial_examples():
    n = 3
    assert (V(n, 0) ** 2 * V(n, 1)).partial(0) == 2 * V(n, 0) * V(n, 1)
    assert (V(n, 0) ** 2 * V(n, 1)).partial(2).is_zero
    assert (V(n, 1) ** 2 + V(n, 1) * V(n, 2)).partial(1) == 2 * V(n, 1) + V(n, 2)


# -- gradings ------------------------------------------------------------------


def test_homogeneous_components():
    p = V(3, 0) + V(3, 1) ** 2
    assert homogeneous_component(p, 2) == V(3, 1) ** 2
    assert homogeneous_component(p, 0).is_zero
    assert homogeneous_component(Polynomial.zero(3), 5).is_zero
    total = Polynomial.zero(3)
    for d in p.homogeneous_degrees():
        total = total + homogeneous_component(p, d)
    assert total == p


def test_weight_examples():
    w = (0, 1, 2, 3)
    n = 4
    assert weight(V(n, 2) * V(n, 3), w) == 5
    assert weight(V(n, 0), w) == 0
    assert weight(V(n, 1) + V(n, 2), w) is None
    assert weight(Polynomial.zero(n), w) == 0
    with pytest.raises(ValueError, match="weight vector has 3 entries, expected n=4"):
        weight(V(n, 0), w[:3])


def test_weight_multiplicative(rng):
    w = (1, 2, 3)
    for _ in range(60):
        p = random_poly(3, 2, rng, max_terms=1)
        q = random_poly(3, 2, rng, max_terms=1)
        wp, wq = weight(p, w), weight(q, w)
        if p.is_zero or q.is_zero or wp is None or wq is None:
            continue
        assert weight(p * q, w) == wp + wq


# -- monomial enumeration --------------------------------------------------------


def test_monomial_basis_counts():
    assert len(monomial_basis(3, 2)) == 6
    assert monomial_basis(2, 0) == [(0, 0)]
    for n in range(1, 5):
        for d in range(0, 5):
            assert len(monomial_basis(n, d)) == math.comb(n + d - 1, d)


def test_monomial_basis_strictly_increasing():
    for n, d in ((3, 2), (4, 3), (2, 5)):
        basis = monomial_basis(n, d)
        keys = [grlex_key(m) for m in basis]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_monomial_basis_equals_the_sorted_compositions():
    for n in range(8):
        for d in range(7):
            for banned in ((), (0,), (n - 1,), (0, n - 2), tuple(range(1, n, 2))):
                banned = tuple(i for i in banned if 0 <= i < n)
                expected = sorted(
                    (e for e in compositions(n, d) if not any(e[i] for i in banned)),
                    key=grlex_key,
                )
                assert monomial_basis(n, d, exclude_vars=banned) == expected, (n, d, banned)


def test_monomial_basis_exclusion():
    got = monomial_basis(3, 2, exclude_vars=(0,))
    assert all(m[0] == 0 for m in got)
    assert len(got) == 3


def test_monomials_by_weight_match_the_filtered_compositions():
    # the pruned walk against filtering every composition: the same groups,
    # each in ascending grlex order, for negative weights and empty ranges too
    rng = random.Random(37)
    for _ in range(600):
        n = rng.randint(0, 7)
        d = rng.randint(-1, 6)
        weights = tuple(rng.randint(-2, 4) for _ in range(n))
        banned = frozenset(rng.sample(range(n), rng.randint(0, n)))
        lo = rng.randint(-14, 26)
        hi = lo + rng.randint(-3, 12)
        expected: dict = {}
        for e in sorted(compositions(n, d), key=grlex_key) if d >= 0 else ():
            w = sum(a * b for a, b in zip(e, weights))
            if lo <= w <= hi and not any(e[i] for i in banned):
                expected.setdefault(w, []).append(e)
        got = _monomials_by_weight(n, d, weights, banned, lo, hi)
        assert got == expected, (n, d, weights, banned, lo, hi)


def test_monomials_by_weight_leave_no_reference_cycle():
    # a cycle left by each call would pile up until the next collection
    gc.collect()
    gc.disable()
    try:
        _monomials_by_weight(4, 3, (0, 1, 2, 3), frozenset({1}), 1, 7)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_monomial_basis_recursion_stays_shallow():
    # neither many variables nor a high degree may recurse past Python's limit
    units = monomial_basis(3000, 1)
    assert len(units) == 3000
    assert all(len(e) == 3000 and sum(e) == 1 for e in units)
    assert [e.index(1) for e in units] == list(range(2999, -1, -1))
    assert monomial_basis(2, 3000) == [(a, 3000 - a) for a in range(3001)]
