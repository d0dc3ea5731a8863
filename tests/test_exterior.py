import itertools
import random
from fractions import Fraction

import pytest

from polypoisson.exterior import ExteriorForm, _complement, _merge_sign, format_form
from polypoisson.poly import Polynomial, parse_poly

from conftest import random_poly
from oracles import _perm_sign, coordinate_field, evaluate_form, interior


def V(n, i):
    return Polynomial.variable(n, i)


def random_form(n, k, max_degree, rng, density=0.5):
    terms = {}
    for idx in itertools.combinations(range(n), k):
        if rng.random() < density:
            p = random_poly(n, max_degree, rng)
            if not p.is_zero:
                terms[idx] = p
    return ExteriorForm(n, k, terms)


# -- complements ------------------------------------------------------------------


def test_complement_sign_matches_inversion_count():
    for n in range(8):
        for k in range(n + 1):
            for idx in itertools.combinations(range(n), k):
                rest, sign = _complement(idx, n)
                assert rest == tuple(sorted(set(range(n)) - set(idx)))
                assert sign == _perm_sign(idx + rest)
                assert _complement(set(idx), n) == (rest, sign)


def test_merge_sign_matches_inversion_count():
    # the one shuffle sign behind every wedge and contraction: the sign that
    # sorts a + b, and a collision of the two tuples gives no term at all
    tuples = [t for k in range(8) for t in itertools.combinations(range(7), k)]
    for a in tuples:
        for b in tuples:
            if set(a) & set(b):
                assert _merge_sign(a, b) == (0, None)
            else:
                assert _merge_sign(a, b) == (_perm_sign(a + b), tuple(sorted(a + b)))


# -- wedge -------------------------------------------------------------------------


def test_wedge_basis_and_nilpotence():
    n = 3
    dx1 = ExteriorForm.basis(n, (0,))
    dx2 = ExteriorForm.basis(n, (1,))
    assert dx1.wedge(dx2) == ExteriorForm.basis(n, (0, 1))
    assert dx1.wedge(dx1).is_zero


def test_wedge_with_reordering_sign():
    n = 3
    a = ExteriorForm.basis(n, (2,), V(n, 1))  # X2 dX3
    b = ExteriorForm.basis(n, (1,), V(n, 2))  # X3 dX2
    expected = ExteriorForm.basis(n, (1, 2), -(V(n, 1) * V(n, 2)))
    assert a.wedge(b) == expected


def test_wedge_graded_commutativity(rng):
    n = 4
    for _ in range(100):
        ka, kb = rng.randint(0, 2), rng.randint(0, 2)
        a = random_form(n, ka, 2, rng)
        b = random_form(n, kb, 2, rng)
        sign = (-1) ** (ka * kb)
        assert a.wedge(b) == b.wedge(a) * sign


def test_wedge_above_top_degree_is_zero(rng):
    n = 3
    a = random_form(n, 2, 2, rng)
    b = random_form(n, 2, 2, rng)
    assert a.wedge(b).is_zero


def pairwise_wedge(a, b):
    """Brute-force wedge: every term against every term, sign by inversion count."""
    out = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            joined = ia + ib
            if len(set(joined)) < len(joined):
                continue
            inversions = sum(
                1 for x in range(len(joined)) for y in range(x + 1, len(joined))
                if joined[x] > joined[y]
            )
            key = tuple(sorted(joined))
            term = ca * cb * (-1) ** inversions
            out[key] = out[key] + term if key in out else term
    return ExteriorForm(a.n, a.k + b.k, out)


def test_top_degree_wedge_equals_pairwise_loop(rng):
    for _ in range(150):
        n = rng.randint(1, 6)
        ka = rng.randint(0, n)
        a = random_form(n, ka, 2, rng, density=rng.choice([0.3, 0.7, 1.0]))
        b = random_form(n, n - ka, 2, rng, density=rng.choice([0.3, 0.7, 1.0]))
        assert a.wedge(b) == pairwise_wedge(a, b)
        assert a.wedge(b).k == n


# -- exterior derivative ------------------------------------------------------------


def test_d_of_omega_example():
    n = 3
    omega = ExteriorForm.basis(n, (2,), V(n, 1)) + ExteriorForm.basis(
        n, (1,), -2 * V(n, 2)
    )
    expected = ExteriorForm.basis(n, (1, 2), Polynomial.constant(n, 3))
    assert omega.d() == expected


def test_d_examples():
    n = 3
    assert ExteriorForm.basis(n, (0,)).d().is_zero
    zero_form = ExteriorForm(n, 0, {(): V(n, 0) * V(n, 1)})
    assert zero_form.d() == ExteriorForm.basis(n, (0,), V(n, 1)) + ExteriorForm.basis(
        n, (1,), V(n, 0)
    )


def test_d_squared_is_zero(rng):
    for _ in range(100):
        n = rng.randint(2, 5)
        k = rng.randint(0, min(3, n))
        a = random_form(n, k, 3, rng)
        assert a.d().d().is_zero


def test_d_graded_leibniz(rng):
    n = 4
    for _ in range(100):
        ka, kb = rng.randint(0, 2), rng.randint(0, 2)
        a = random_form(n, ka, 2, rng)
        b = random_form(n, kb, 2, rng)
        left = a.wedge(b).d()
        right = a.d().wedge(b) + a.wedge(b.d()) * ((-1) ** ka)
        assert left == right


# -- interior product ------------------------------------------------------------------


def test_interior_examples():
    n = 3
    dx12 = ExteriorForm.basis(n, (0, 1))
    assert interior(dx12, coordinate_field(n, 0)) == ExteriorForm.basis(n, (1,))
    assert interior(dx12, coordinate_field(n, 2)).is_zero
    field = [V(n, 1), Polynomial.zero(n), Polynomial.zero(n)]  # X2 d/dX1
    form = ExteriorForm.basis(n, (0, 1), V(n, 2))
    assert interior(form, field) == ExteriorForm.basis(n, (1,), V(n, 1) * V(n, 2))


def test_interior_rejects_zero_forms():
    with pytest.raises(ValueError):
        interior(
            ExteriorForm(3, 0, {(): Polynomial.constant(3, 1)}),
            coordinate_field(3, 0),
        )


def test_interior_squares_to_zero(rng):
    n = 4
    for _ in range(60):
        k = rng.randint(2, 4)
        a = random_form(n, k, 2, rng)
        field = [random_poly(n, 2, rng) for _ in range(n)]
        assert interior(interior(a, field), field).is_zero


def test_interior_coordinate_agrees_with_general(rng):
    n = 4
    for _ in range(60):
        k = rng.randint(1, 4)
        a = random_form(n, k, 2, rng)
        for i in range(n):
            assert a.interior_coordinates((i,)) == interior(a, coordinate_field(n, i))


def test_interior_coordinates_equals_iterated_interior_coordinate(rng):
    for _ in range(300):
        n = rng.randint(1, 7)
        k = rng.randint(0, n)
        a = random_form(n, k, 2, rng, density=rng.choice([0.2, 0.6, 1.0]))
        idxs = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        iterated = a
        for i in idxs:
            # the oracle has no degree-0 case: contracting a function gives 0
            if iterated.k:
                iterated = interior(iterated, coordinate_field(n, i))
            else:
                iterated = ExteriorForm.zero(n, 0)
        contracted = a.interior_coordinates(idxs)
        assert contracted == iterated
        assert contracted.k == iterated.k


@pytest.mark.parametrize("idxs", [[3, 1], [7], [-1], [1, 1]])
def test_interior_coordinates_rejects_indices_it_cannot_contract_by(idxs):
    # unsorted, out-of-range and repeated indices used to give a wrong sign or zero
    top = ExteriorForm.basis(4, (0, 1, 2, 3))
    with pytest.raises(ValueError):
        top.interior_coordinates(idxs)


def test_interior_coordinates_by_increasing_indices_is_unchanged():
    top = ExteriorForm.basis(4, (0, 1, 2, 3))
    assert top.interior_coordinates([1, 3]) == ExteriorForm.basis(4, (0, 2), -1)
    assert top.interior_coordinates([]) == top


# -- evaluation --------------------------------------------------------------------------


def test_evaluate_examples():
    n = 3
    dx12 = ExteriorForm.basis(n, (0, 1))
    e1, e2 = coordinate_field(n, 0), coordinate_field(n, 1)
    one = Polynomial.constant(n, 1)
    assert evaluate_form(dx12, [e1, e2]) == one
    assert evaluate_form(dx12, [e2, e1]) == -one
    form = ExteriorForm.basis(n, (2,), V(n, 1))  # X2 dX3
    field = [Polynomial.zero(n), Polynomial.zero(n), V(n, 2)]  # X3 d/dX3
    assert evaluate_form(form, [field]) == V(n, 1) * V(n, 2)


def test_evaluate_alternating(rng):
    n = 4
    for _ in range(40):
        a = random_form(n, 2, 2, rng)
        f1 = [random_poly(n, 1, rng) for _ in range(n)]
        f2 = [random_poly(n, 1, rng) for _ in range(n)]
        assert evaluate_form(a, [f1, f2]) == -evaluate_form(a, [f2, f1])
        assert evaluate_form(a, [f1, f1]).is_zero


def test_interior_is_evaluation_in_first_slot(rng):
    n = 4
    for _ in range(40):
        a = random_form(n, 2, 2, rng)
        y = [random_poly(n, 1, rng) for _ in range(n)]
        z = [random_poly(n, 1, rng) for _ in range(n)]
        assert evaluate_form(interior(a, y), [z]) == evaluate_form(a, [y, z])


# -- formatting ---------------------------------------------------------------------------


def test_format_form_example():
    n = 3
    omega = ExteriorForm.basis(n, (2,), V(n, 1)) + ExteriorForm.basis(
        n, (1,), -2 * V(n, 2)
    )
    assert format_form(omega) == "X2*dX3 - 2*X3*dX2"
    assert format_form(ExteriorForm.zero(n, 1)) == "0"
    mixed = ExteriorForm.basis(n, (0,), V(n, 0) + V(n, 1))
    assert format_form(mixed) == "(X1 + X2)*dX1"
