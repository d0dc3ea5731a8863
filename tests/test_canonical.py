"""Every operation keeps its result canonical: no zero is ever stored.

Coefficients are drawn from {-1, 1} on few low-degree monomials, so sums
and products cancel often; each test also checks that cancellation did
happen, so a merge that kept a zero would be seen.
"""

import itertools
import random

from polypoisson.exterior import ExteriorForm
from polypoisson.multivector import MultiDerivation
from polypoisson.poly import Polynomial, monomial_basis

N = 3


def stores_zero(obj) -> bool:
    if isinstance(obj, Polynomial):
        return any(not c for c in obj.terms.values())
    values = obj.terms if isinstance(obj, ExteriorForm) else obj.values
    return any(v.is_zero or stores_zero(v) for v in values.values())


def small_poly(rng: random.Random) -> Polynomial:
    monos = [e for d in range(2) for e in monomial_basis(N, d)]
    return Polynomial(N, {e: rng.choice((-1, 1)) for e in rng.sample(monos, rng.randint(0, 3))})


def small_terms(k: int, rng: random.Random) -> dict:
    return {
        idx: small_poly(rng)
        for idx in itertools.combinations(range(N), k)
        if rng.random() < 0.7
    }


def test_constructors_drop_zero_values():
    e, f = (1, 0, 0), (0, 1, 0)
    assert Polynomial(N, {e: 0}).terms == {}
    assert Polynomial(N, {e: 0}) == Polynomial.zero(N)
    assert Polynomial(N, {e: 0, f: 2}).terms == {f: 2}
    x, zero = Polynomial.variable(N, 0), Polynomial.zero(N)
    assert ExteriorForm(N, 1, {(0,): zero, (1,): x}).terms == {(1,): x}
    assert MultiDerivation(N, 1, {(0,): zero, (1,): x}).values == {(1,): x}


def test_polynomial_ring_operations_store_no_zero(rng):
    x, y = Polynomial.variable(N, 0), Polynomial.variable(N, 1)
    assert (x + y) * (x - y) == x * x - y * y
    assert not stores_zero((x + y) * (x - y))
    cancelled = 0
    for _ in range(400):
        p, q = small_poly(rng), small_poly(rng)
        for r in (p + q, p - q, p * q, p - p, p + (-p)):
            assert not stores_zero(r)
        cancelled += len((p + q).terms) < len(p.terms) + len(q.terms)
        product_terms = len({tuple(map(sum, zip(a, b))) for a in p.terms for b in q.terms})
        cancelled += len((p * q).terms) < product_terms
    assert cancelled > 100


def test_form_operations_store_no_zero(rng):
    cancelled = 0
    for _ in range(200):
        k, l = rng.randint(0, N), rng.randint(0, N)
        a = ExteriorForm(N, k, small_terms(k, rng))
        b = ExteriorForm(N, k, small_terms(k, rng))
        c = ExteriorForm(N, l, small_terms(l, rng))
        for r in (a + b, a - b, a - a, a.wedge(c), c.wedge(a), a.d(), a.d().d()):
            assert not stores_zero(r)
        assert (a - a).is_zero and a.d().d().is_zero
        cancelled += len((a + b).terms) < len(a.terms) + len(b.terms)
    assert cancelled > 20
    one_form = ExteriorForm(N, 1, small_terms(1, rng))
    assert one_form.wedge(one_form).terms == {}


def test_multiderivation_sum_stores_no_zero(rng):
    cancelled = 0
    for _ in range(200):
        k = rng.randint(0, N)
        a = MultiDerivation(N, k, small_terms(k, rng))
        b = MultiDerivation(N, k, small_terms(k, rng))
        for r in (a + b, a - b, a - a):
            assert not stores_zero(r)
        assert (a - a).values == {}
        cancelled += len((a + b).values) < len(a.values) + len(b.values)
    assert cancelled > 20
