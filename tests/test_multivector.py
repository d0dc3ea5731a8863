import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polypoisson.catalog import catalog_bivector
from polypoisson.exterior import ExteriorForm
from polypoisson.multivector import (
    MultiDerivation,
    bivector_entry,
    bivector_from_entries,
    integrability_via_forms,
    jacobi_trisum,
    phi_inverse,
    phi_map,
)
from polypoisson.poisson import IntegrabilityError, verify
from polypoisson.poly import Polynomial

from conftest import random_bivector, random_cochain, random_poly
from oracles import evaluate_derivation


def V(n, i):
    return Polynomial.variable(n, i)


def p1_bivector():
    return bivector_from_entries(3, {(0, 1): V(3, 1), (0, 2): 2 * V(3, 2)})


# -- evaluation -------------------------------------------------------------------


def test_evaluate_leibniz_expansion_example():
    phi = MultiDerivation.elementary(3, (0, 1), Polynomial.constant(3, 1))
    assert evaluate_derivation(phi, [V(3, 0) ** 2, V(3, 1)]) == 2 * V(3, 0)


def test_evaluate_repeated_argument_vanishes(rng):
    for _ in range(20):
        phi = random_cochain(3, 2, 2, rng)
        p = random_poly(3, 2, rng)
        assert evaluate_derivation(phi, [p, p]).is_zero


def test_evaluate_p1_bracket_value():
    p1 = p1_bivector()
    assert evaluate_derivation(p1, [V(3, 0), V(3, 1) * V(3, 2)]) == 3 * V(3, 1) * V(3, 2)


def test_evaluate_on_coordinates_returns_stored_values(rng):
    for _ in range(30):
        n = rng.randint(2, 5)
        k = rng.randint(1, min(3, n))
        phi = random_cochain(n, k, 2, rng)
        for idx in itertools.combinations(range(n), k):
            coords = [V(n, i) for i in idx]
            assert evaluate_derivation(phi, coords) == phi.values.get(idx, Polynomial.zero(n))


def test_evaluate_is_alternating_and_leibniz(rng):
    n = 3
    for _ in range(40):
        phi = random_cochain(n, 2, 2, rng)
        p, q, r = (random_poly(n, 2, rng) for _ in range(3))
        assert evaluate_derivation(phi, [p, q]) == -evaluate_derivation(phi, [q, p])
        # Leibniz in the first slot
        assert evaluate_derivation(phi, [p * q, r]) == (
            p * evaluate_derivation(phi, [q, r]) + q * evaluate_derivation(phi, [p, r])
        )


def test_evaluate_first_matches_general(rng):
    for _ in range(40):
        n = rng.randint(3, 5)
        k = rng.randint(1, 3)
        phi = random_cochain(n, k, 2, rng)
        coords = rng.sample(range(n), k - 1) if k > 1 else []
        first = random_poly(n, 2, rng)
        args = [first] + [V(n, i) for i in coords]
        assert phi.evaluate_first(first, coords) == evaluate_derivation(phi, args)


def test_evaluate_arity_mismatch():
    phi = MultiDerivation.elementary(3, (0, 1), V(3, 0))
    with pytest.raises(ValueError):
        evaluate_derivation(phi, [V(3, 0)])


# -- the form correspondence --------------------------------------------------------


def test_phi_map_vector_field_example():
    phi = MultiDerivation.elementary(3, (0,), V(3, 1))
    assert phi_map(phi) == ExteriorForm.basis(3, (1, 2), V(3, 1))


def test_phi_map_zero_arity():
    p = random_poly(3, 2, random.Random(7))
    form = phi_map(MultiDerivation.from_polynomial(p))
    assert form == ExteriorForm(3, 3, {(0, 1, 2): p} if not p.is_zero else {})


def test_phi_map_p1_matches_printed_form():
    omega = phi_map(p1_bivector())
    expected = ExteriorForm.basis(3, (2,), V(3, 1)) - ExteriorForm.basis(
        3, (1,), 2 * V(3, 2)
    )
    assert omega == expected


def test_phi_inverse_one_form_example():
    form = ExteriorForm.basis(3, (1,), V(3, 2))  # X3 dX2
    phi = phi_inverse(form)
    assert phi.k == 2
    assert phi.values == {(0, 2): -V(3, 2)}
    assert phi_inverse(ExteriorForm.zero(3, 1)).is_zero


def test_phi_roundtrip_random(rng):
    for _ in range(60):
        n = rng.randint(2, 5)
        k = rng.randint(0, n)
        phi = random_cochain(n, k, 2, rng)
        assert phi_inverse(phi_map(phi)) == phi
        form = phi_map(phi)
        assert phi_map(phi_inverse(form)) == form


# -- integrability -------------------------------------------------------------------


def test_trisum_so3_is_integrable():
    so3 = bivector_from_entries(
        3, {(0, 1): V(3, 2), (0, 2): -V(3, 1), (1, 2): V(3, 0)}
    )
    assert jacobi_trisum(so3) == []


def test_trisum_witness_example():
    bad = bivector_from_entries(
        3, {(0, 1): V(3, 1), (0, 2): V(3, 2), (1, 2): V(3, 0)}
    )
    obstructions = jacobi_trisum(bad)
    assert len(obstructions) == 1
    i, j, k, poly = obstructions[0]
    assert (i, j, k) == (0, 1, 2)
    assert poly == 2 * V(3, 0)


def test_trisum_zero_bivector():
    assert jacobi_trisum(MultiDerivation.zero(4, 2)) == []


def test_trisum_empty_below_three_variables():
    assert jacobi_trisum(bivector_from_entries(2, {(0, 1): V(2, 0)})) == []


def test_forms_criterion_examples():
    assert integrability_via_forms(p1_bivector())
    bad = bivector_from_entries(
        3, {(0, 1): V(3, 1), (0, 2): V(3, 2), (1, 2): V(3, 0)}
    )
    assert not integrability_via_forms(bad)


def test_forms_criterion_on_four_variable_rigid():
    biv = catalog_bivector("rigid", {"n": 4})
    assert jacobi_trisum(biv) == []
    assert integrability_via_forms(biv)


def test_oracle_equivalence_random_bivectors(rng):
    checked = 0
    for n in (3, 4, 5):
        for _ in range(70):
            biv = random_bivector(n, 2, rng)
            trisum_ok = not jacobi_trisum(biv)
            assert integrability_via_forms(biv) == trisum_ok
            checked += 1
    assert checked >= 200


def reference_trisum(biv):
    """All triples in combinations order, every r, no skipping."""
    n = biv.n
    out = []
    for i, j, k in itertools.combinations(range(n), 3):
        total = Polynomial.zero(n)
        for first, pair in ((i, (j, k)), (j, (k, i)), (k, (i, j))):
            target = bivector_entry(biv, *pair)
            for r in range(n):
                total = total + bivector_entry(biv, r, first) * target.partial(r)
        if not total.is_zero:
            out.append((i, j, k, total))
    return out


@st.composite
def sparse_bivectors(draw):
    """(bivector, known_integrable) on 6..9 variables, with few nonzero entries.

    Constant and log-canonical (P_ij = c_ij X_i X_j) bivectors are Poisson;
    the catalog's rigid family is too.  Random polynomial entries, or one
    extra linear term on a log-canonical bivector, are usually not.
    """
    n = draw(st.integers(6, 9))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=2 * n, unique=True))
    coeffs = [Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 2)))
              for _ in chosen]
    kind = draw(st.sampled_from(["constant", "log-canonical", "rigid", "perturbed", "random"]))
    if kind == "rigid":
        return catalog_bivector("rigid", {"n": n - 1}) * coeffs[0], True
    entries = {}
    for (i, j), c in zip(chosen, coeffs):
        if kind == "constant":
            entries[(i, j)] = Polynomial.constant(n, c)
        elif kind == "random":
            exps = [0] * n
            for v in draw(st.lists(st.integers(0, n - 1), max_size=2)):
                exps[v] += 1
            entries[(i, j)] = Polynomial.monomial(n, exps, c)
        else:
            entries[(i, j)] = c * V(n, i) * V(n, j)
    if kind == "perturbed":
        i, j = draw(st.sampled_from(pairs))
        extra = V(n, draw(st.integers(0, n - 1)))
        entries[(i, j)] = entries[(i, j)] + extra if (i, j) in entries else extra
    return bivector_from_entries(n, entries), kind in ("constant", "log-canonical")


@settings(max_examples=150, deadline=None)
@given(sparse_bivectors())
def test_sparse_trisum_matches_all_triples_reference(case):
    biv, known_integrable = case
    expected = reference_trisum(biv)
    assert jacobi_trisum(biv) == expected
    if known_integrable:
        assert expected == []
    assert integrability_via_forms(biv) == (not expected)
    if expected:
        with pytest.raises(IntegrabilityError) as err:
            verify(biv, first_index=0)
        assert err.value.witness == expected[0]


def test_bare_reprs_name_variables_by_internal_index():
    p1 = catalog_bivector("P1")
    assert repr(p1) == "MultiDerivation(n=3, k=2, {(0, 1): 'x1', (0, 2): '2*x2'})"
    assert repr(p1.values[(0, 2)]) == "Polynomial(3, 2*x2)"
    rigid = catalog_bivector("rigid", {"n": 6})
    assert repr(rigid.values[(0, 1)]) == "Polynomial(7, x1)"
    assert repr(rigid).startswith("MultiDerivation(n=7, k=2, {(0, 1): 'x1', (0, 2): '2*x2',")


def test_bivector_entry_signs():
    biv = p1_bivector()
    assert bivector_entry(biv, 0, 1) == V(3, 1)
    assert bivector_entry(biv, 1, 0) == -V(3, 1)
    assert bivector_entry(biv, 1, 1).is_zero
