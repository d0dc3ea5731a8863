import random
from fractions import Fraction

import pytest

from polypoisson.catalog import catalog_get
from polypoisson.multivector import MultiDerivation, bivector_from_entries
from polypoisson.poisson import (
    DegreeOverflowError,
    IntegrabilityError,
    Order2Equivalence,
    PoissonStructure,
    apply_equivalence,
    graded_integrability,
    verify,
)
from polypoisson.poly import Polynomial

from conftest import random_bivector, random_poly
from oracles import evaluate_derivation


def V(n, i):
    return Polynomial.variable(n, i)


def p1():
    return catalog_get("P1")


# -- verify ---------------------------------------------------------------------


def test_verify_p1():
    S = p1()
    assert S.verified and S.n == 3


def test_verify_witness():
    bad = bivector_from_entries(3, {(0, 1): V(3, 1), (0, 2): V(3, 2), (1, 2): V(3, 0)})
    with pytest.raises(IntegrabilityError) as err:
        verify(bad)
    i, j, k, poly = err.value.witness
    assert (i, j, k) == (0, 1, 2) and poly == 2 * V(3, 0)
    assert "trisum(1,2,3) = 2*X1" in str(err.value)


def test_repr_labels_follow_first_index():
    # rigid n=7 lives on X0..X7, so {X0, X1} = X1 prints with base-0 labels
    text = repr(catalog_get("rigid", {"n": 7}))
    assert text.startswith("PoissonStructure(n=8, P(0,1)=X1, P(0,2)=2*X2,")
    assert "P(2,5)=X7)" in text and "X8" not in text


def test_verify_two_variables_always_integrable(rng):
    for _ in range(10):
        biv = random_bivector(2, 3, rng)
        assert verify(biv).verified


def test_structure_only_built_by_verify():
    with pytest.raises(ValueError):
        PoissonStructure(bivector_from_entries(3, {}))


# -- bracket ----------------------------------------------------------------------


def test_bracket_examples():
    S = p1()
    assert S.bracket(V(3, 0), V(3, 1)) == V(3, 1)
    assert S.bracket(V(3, 0), V(3, 1) * V(3, 2)) == 3 * V(3, 1) * V(3, 2)
    assert S.bracket(V(3, 1), V(3, 2)).is_zero


def test_bracket_antisymmetry(rng):
    S = p1()
    for _ in range(30):
        p = random_poly(3, 3, rng)
        q = random_poly(3, 3, rng)
        assert S.bracket(p, q) == -S.bracket(q, p)
        assert S.bracket(p, p).is_zero


@pytest.mark.parametrize(
    "name,params",
    [
        ("P1", None),
        ("P2", {"n": 4}),
        ("rigid", {"n": 5}),
        ("Omega7", {"a": 1, "b": Fraction(1, 2)}),
        ("NF39-3", None),
    ],
)
def test_bracket_leibniz_and_jacobi(name, params, rng):
    S = catalog_get(name, params)
    n = S.n
    for _ in range(25):
        p, q, r = (random_poly(n, 2, rng, max_terms=2) for _ in range(3))
        assert S.bracket(p * q, r) == p * S.bracket(q, r) + q * S.bracket(p, r)
        jac = (
            S.bracket(S.bracket(p, q), r)
            + S.bracket(S.bracket(q, r), p)
            + S.bracket(S.bracket(r, p), q)
        )
        assert jac.is_zero


def test_bracket_matches_evaluate(rng):
    S = catalog_get("Omega9", {k: Fraction(1, 2) for k in "abcefg"})
    for _ in range(20):
        p = random_poly(3, 2, rng)
        q = random_poly(3, 2, rng)
        assert S.bracket(p, q) == evaluate_derivation(S.bivector, [p, q])


# -- graded integrability -----------------------------------------------------------


def test_graded_integrability_catalog_entries():
    for name, params in (
        ("Omega1", {"a": 1, "b": 2, "c": Fraction(1, 3), "e": -1}),
        ("Omega7", {"a": 2, "b": -1}),
    ):
        S = catalog_get(name, params)
        report = graded_integrability(S.bivector)
        assert report.all_hold


def test_graded_integrability_pure_linear():
    S = catalog_get("L2")
    report = graded_integrability(S.bivector)
    assert report.all_hold
    # only the linear-linear equation carries content for a linear structure
    assert report.quad_quad and report.const_lin and report.lin_quad


def test_graded_integrability_matches_verify(rng):
    agree = 0
    for _ in range(120):
        biv = random_bivector(3, 2, rng)
        report = graded_integrability(biv)
        trisum_ok = True
        try:
            verify(biv)
        except IntegrabilityError:
            trisum_ok = False
        assert report.all_hold == trisum_ok
        agree += 1
    assert agree == 120


def test_graded_integrability_rejects_high_degree():
    biv = bivector_from_entries(3, {(0, 1): V(3, 0) ** 3})
    with pytest.raises(ValueError):
        graded_integrability(biv)


# -- order-2 equivalences --------------------------------------------------------------


def test_identity_equivalence_fixes_structure():
    S = catalog_get("Omega7", {"a": 1, "b": 0})
    T = apply_equivalence(S, Order2Equivalence.identity(3))
    assert T.bivector == S.bivector


def test_heisenberg_quadratic_shift():
    heis = verify(bivector_from_entries(3, {(0, 1): V(3, 2)}))
    f = Order2Equivalence(
        3,
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [Polynomial.zero(3), Polynomial.zero(3), V(3, 0) * V(3, 1)],
    )
    T = apply_equivalence(heis, f)
    assert T.bivector.values == {
        (0, 1): V(3, 2) - V(3, 0) * V(3, 1),
        (0, 2): V(3, 0) * V(3, 2),
        (1, 2): -(V(3, 1) * V(3, 2)),
    }


def test_linear_rescaling_of_p1():
    S = p1()
    f = Order2Equivalence(3, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    T = apply_equivalence(S, f)
    # scaling the first variable rescales both entries
    assert T.bivector.values == {(0, 1): 2 * V(3, 1), (0, 2): 4 * V(3, 2)}
    assert T.verified


def test_inverse_and_compose_roundtrip(rng):
    for _ in range(25):
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        for i in range(3):
            rows[i][i] += Fraction(rng.randint(1, 3))
        quad = [random_poly(3, 2, rng, max_terms=2).homogeneous_component(2) for _ in range(3)]
        try:
            f = Order2Equivalence(3, rows, quad)
            finv = f.inverse()
        except ValueError:
            continue
        assert f.compose(finv) == Order2Equivalence.identity(3)
        assert finv.compose(f) == Order2Equivalence.identity(3)
        p = random_poly(3, 2, rng)
        assert f.apply_inverse(f.apply(p)) == p
        assert f.apply(f.apply_inverse(p)) == p


def test_apply_then_inverse_returns_structure_linear_case(rng):
    S = catalog_get("L3", {"alpha": 2})
    for _ in range(15):
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        for i in range(3):
            rows[i][i] += Fraction(rng.randint(1, 3))
        try:
            f = Order2Equivalence(3, rows)
        except ValueError:
            continue
        try:
            T = apply_equivalence(S, f)
        except ValueError:
            continue
        back = apply_equivalence(T, f.inverse())
        assert back.bivector == S.bivector


def test_transformed_structures_reverify(rng):
    structures = [
        catalog_get("L1"),
        catalog_get("Omega1", {"a": 1, "b": 0, "c": 1, "e": 0}),
        verify(bivector_from_entries(3, {(0, 1): V(3, 2)})),
    ]
    transformed = 0
    for S in structures:
        for i in range(3):
            quad = [Polynomial.zero(3)] * 3
            quad[i] = random_poly(3, 2, rng, max_terms=2).homogeneous_component(2)
            f = Order2Equivalence(
                3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], quad
            )
            try:
                T = apply_equivalence(S, f)
            except DegreeOverflowError:
                continue
            assert T.verified
            transformed += 1
    assert transformed >= 3


def test_degree_overflow_is_reported():
    S = p1()
    # bracketing two quadratic images produces degree-3 entries here
    f = Order2Equivalence(
        3,
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [V(3, 1) ** 2, V(3, 0) * V(3, 1), Polynomial.zero(3)],
    )
    with pytest.raises(DegreeOverflowError):
        apply_equivalence(S, f)


def test_non_invertible_linear_part_rejected():
    f = Order2Equivalence(3, [[1, 0, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        f.inverse()
