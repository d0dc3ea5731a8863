import random
from fractions import Fraction

import pytest

from polypoisson.catalog import CATALOG, catalog_bivector, catalog_get
from polypoisson.cohomology import cohomology_dims
from polypoisson.multivector import (
    MultiDerivation,
    bivector_from_entries,
    integrability_via_forms,
    jacobi_trisum,
)
from polypoisson.poisson import (
    IntegrabilityError,
    PoissonStructure,
    graded_integrability,
    verify,
)
from polypoisson.poly import Polynomial
from polypoisson.reproduce import rigid_expected_cochain, sample_params

from conftest import random_bivector, random_poly
from oracles import evaluate_derivation, graded_pieces


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


def test_verify_scales_the_bivector_once(passes):
    # one integer multiple and one trisum per bivector, however many of
    # verify, graded_integrability, jacobi_trisum, integrability_via_forms and
    # cohomology_dims read it
    third = catalog_bivector("P1") * Fraction(1, 3)
    bad = bivector_from_entries(3, {(0, 1): V(3, 1), (0, 2): V(3, 2), (1, 2): V(3, 0)})
    S = verify(third)
    assert verify(third).verified and graded_integrability(third).all_hold
    assert jacobi_trisum(third) == [] and integrability_via_forms(third)
    assert cohomology_dims(S, range(3), range(3)).rows
    for _ in range(2):
        with pytest.raises(IntegrabilityError):
            verify(bad)
    assert not graded_integrability(bad).all_hold
    assert jacobi_trisum(bad) and not integrability_via_forms(bad)
    assert passes["scaled"] == [third, bad]
    assert [m.values for m in passes["summed"]] == [(third * 3).values, bad.values]


def test_jacobi_trisum_returns_a_list_of_its_own():
    # the kept obstructions are a tuple; a caller's list is a copy, so
    # changing it changes no later call and no verdict
    bad = bivector_from_entries(3, {(0, 1): V(3, 1), (0, 2): V(3, 2), (1, 2): V(3, 0)})
    obstructions = jacobi_trisum(bad)
    assert obstructions == [(0, 1, 2, 2 * V(3, 0))]
    obstructions.clear()
    assert jacobi_trisum(bad) == [(0, 1, 2, 2 * V(3, 0))]
    with pytest.raises(IntegrabilityError) as err:
        verify(bad)
    assert err.value.witness == (0, 1, 2, 2 * V(3, 0))
    assert graded_integrability(bad) == graded_pieces(bad)
    good = p1().bivector
    jacobi_trisum(good).append((0, 1, 2, V(3, 0)))
    assert jacobi_trisum(good) == [] and verify(good).verified
    assert graded_integrability(good).all_hold


def test_a_new_bivector_keeps_no_integrability_pass():
    # a bivector made from a verified one by +, -, *, the constructor or
    # _trusted starts without a pass, so it is checked afresh: rigid n = 9
    # plus its published degree-1 class is not Poisson
    P = catalog_get("rigid", {"n": 9}).bivector
    phi = rigid_expected_cochain(9)
    assert verify(P).verified and P._pass is not None
    total = P + phi
    made = [
        total,
        P - (-phi),
        (P * 2 + phi * 2) * Fraction(1, 2),
        MultiDerivation(P.n, 2, total.values),
        MultiDerivation._trusted(P.n, 2, dict(total.values)),
    ]
    for Q in made:
        assert Q._pass is None and Q == total
        with pytest.raises(IntegrabilityError):
            verify(Q)
    assert P._pass is not None and verify(P).verified


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


def test_graded_integrability_equals_ten_wedge_oracle_on_catalog_points():
    rng = random.Random(20240305)
    checked = 0
    for name, entry in CATALOG.items():
        if any(spec.integer for spec in entry.params):
            continue
        for _ in range(12 if entry.params else 1):
            biv = catalog_bivector(name, sample_params(name, rng))
            if biv.n == 3:
                assert graded_integrability(biv) == graded_pieces(biv), name
                checked += 1
    assert checked >= 150


def dense_bivector(rng):
    """Three nonzero entries of degree <= 2 on three variables; rarely Poisson."""
    entries = {}
    for pair in ((0, 1), (0, 2), (1, 2)):
        p = Polynomial.zero(3)
        while p.is_zero:
            p = random_poly(3, 2, rng, max_terms=3)
        entries[pair] = p
    return bivector_from_entries(3, entries)


def test_graded_integrability_equals_ten_wedge_oracle_on_random_bivectors():
    rng = random.Random(1618)
    failing = 0
    for t in range(600):
        biv = random_bivector(3, 2, rng) if t % 6 == 0 else dense_bivector(rng)
        report = graded_integrability(biv)
        assert report == graded_pieces(biv)
        failing += not report.all_hold
    assert failing >= 400


@pytest.mark.parametrize("integrable", [True, False])
def test_graded_integrability_reads_the_trisum_once(passes, integrable):
    # the four pieces are the degrees of the one Jacobi obstruction J_012, read
    # from the pass the bivector keeps: no form is built, and verify and
    # jacobi_trisum after it compute no second trisum
    biv = catalog_bivector("P1") * Fraction(2, 5) if integrable else bivector_from_entries(
        3, {(0, 1): V(3, 1), (0, 2): V(3, 2), (1, 2): V(3, 0) ** 2})
    report = graded_integrability(biv)
    assert passes["scaled"] == [biv] and len(passes["summed"]) == 1
    assert report.all_hold == integrable
    assert report == graded_pieces(biv) == graded_integrability(biv)
    assert (not jacobi_trisum(biv)) == integrable == integrability_via_forms(biv)
    if integrable:
        assert verify(biv).verified
    else:
        with pytest.raises(IntegrabilityError):
            verify(biv)
    assert passes["scaled"] == [biv] and len(passes["summed"]) == 1


def test_graded_integrability_rejects_high_degree():
    biv = bivector_from_entries(3, {(0, 1): V(3, 0) ** 3})
    with pytest.raises(ValueError):
        graded_integrability(biv)
