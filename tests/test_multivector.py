import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polypoisson.catalog import CATALOG, catalog_bivector
from polypoisson.exterior import ExteriorForm, _complement
from polypoisson.multivector import (
    MultiDerivation,
    bivector_entry,
    bivector_from_entries,
    integrability_via_forms,
    jacobi_trisum,
    phi_inverse,
    phi_map,
)
from polypoisson.poisson import IntegrabilityError, PoissonStructure, verify
from polypoisson.poly import Polynomial, parse_poly
from polypoisson.reproduce import CLASSIFIED_ENTRIES, sample_params

from conftest import random_bivector, random_cochain, random_poly
from oracles import (
    evaluate_derivation,
    evaluate_first,
    integrability_by_contraction,
    jacobi_trisum_polynomial,
)


def V(n, i):
    return Polynomial.variable(n, i)


def p1_bivector():
    return bivector_from_entries(3, {(0, 1): V(3, 1), (0, 2): 2 * V(3, 2)})


# -- evaluation -------------------------------------------------------------------


def test_evaluate_leibniz_expansion_example():
    phi = MultiDerivation(3, 2, {(0, 1): Polynomial.constant(3, 1)})
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
        assert evaluate_first(phi, first, coords) == evaluate_derivation(phi, args)


def test_bivector_from_entries_rejects_pair_order():
    # the index check of every multiderivation rejects a pair with i >= j
    for pair in ((1, 0), (1, 1)):
        with pytest.raises(ValueError, match="not strictly increasing"):
            bivector_from_entries(3, {pair: V(3, 0)})


def test_evaluate_arity_mismatch():
    phi = MultiDerivation(3, 2, {(0, 1): V(3, 0)})
    with pytest.raises(ValueError):
        evaluate_derivation(phi, [V(3, 0)])


# -- the form correspondence --------------------------------------------------------


def test_phi_map_vector_field_example():
    phi = MultiDerivation(3, 1, {(0,): V(3, 1)})
    assert phi_map(phi) == ExteriorForm.basis(3, (1, 2), V(3, 1))


def test_phi_map_zero_arity():
    p = random_poly(3, 2, random.Random(7))
    form = phi_map(MultiDerivation(3, 0, {(): p}))
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


def assert_routes_agree(biv):
    """The form route's verdict, checked against the contraction oracle."""
    verdict = integrability_via_forms(biv)
    assert verdict == integrability_by_contraction(biv), biv
    return verdict


def test_form_route_matches_contraction_oracle_on_the_catalog():
    rng = random.Random(1919)
    for name in CLASSIFIED_ENTRIES:
        for _ in range(20 if CATALOG[name].params else 1):
            assert assert_routes_agree(catalog_bivector(name, sample_params(name, rng)))
    assert assert_routes_agree(catalog_bivector("P1"))
    for n in range(3, 25):
        assert assert_routes_agree(catalog_bivector("rigid", {"n": n}))
        assert assert_routes_agree(catalog_bivector("P2", {"n": n}))
    for n in range(7, 21):
        assert assert_routes_agree(catalog_bivector("deformed-mu", {"n": n})) == (n < 9)


def random_monomial(n, rng):
    exps = [0] * n
    for _ in range(rng.randint(0, 2)):
        exps[rng.randrange(n)] += 1
    return Polynomial.monomial(n, exps, Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))


def test_form_route_matches_contraction_oracle_on_random_bivectors():
    # random entries, log-canonical structures P_ij = c_ij X_i X_j (Poisson),
    # and log-canonical or scaled P2 and rigid structures with one entry perturbed
    rng = random.Random(20191)
    verdicts = []
    for t in range(600):
        n = 3 + t % 6
        kind = t // 6 % 4
        if kind == 0:
            biv = random_bivector(n, rng.randint(0, 2), rng)
        elif kind in (1, 2):
            biv = bivector_from_entries(n, {
                (i, j): Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * V(n, i) * V(n, j)
                for i, j in itertools.combinations(range(n), 2) if rng.random() < 0.6
            })
        elif n >= 4 and t // 24 % 2:
            biv = catalog_bivector("rigid", {"n": n - 1}) * Fraction(rng.randint(1, 5), 3)
        else:
            biv = catalog_bivector("P2", {"n": n}) * Fraction(rng.randint(1, 5), 3)
        if kind >= 2:
            pair = tuple(sorted(rng.sample(range(n), 2)))
            biv = biv + bivector_from_entries(n, {pair: random_monomial(n, rng)})
        verdicts.append(assert_routes_agree(biv))
    assert len(verdicts) == 600
    assert verdicts.count(True) >= 150 and verdicts.count(False) >= 200


def test_form_route_signs_match_the_form_operations():
    # notes/decisions.md, entry 7: the three closed-form signs of
    # integrability_via_forms against interior_coordinates, d and the top wedge
    for n in range(3, 8):
        for triple in itertools.combinations(range(n), 3):
            outside, _ = _complement(triple, n)
            for pos, r in enumerate(triple):
                rest = triple[:pos] + triple[pos + 1 :]
                term = ExteriorForm.basis(n, _complement(rest, n)[0])
                above = n - 1 - r - (2 - pos)
                assert above == sum(1 for i in outside if i > r)
                assert term.interior_coordinates(outside) == \
                    ExteriorForm.basis(n, (r,), (-1) ** above)
        for r, i in itertools.permutations(range(n), 2):
            d = ExteriorForm.basis(n, (r,), V(n, i)).d()
            assert d == ExteriorForm.basis(n, tuple(sorted((i, r))), 1 if i < r else -1)
        for s, t in itertools.combinations(range(n), 2):
            top = ExteriorForm.basis(n, (s, t)).wedge(
                ExteriorForm.basis(n, _complement((s, t), n)[0]))
            assert top == ExteriorForm.basis(n, tuple(range(n)), (-1) ** (s + t - 1))


def fractional_bivector():
    """Not integrable, with coefficients 1/2, 2/3 and -3/4, so L = 12."""
    return bivector_from_entries(4, {
        (0, 1): parse_poly("1/2*X3", 4),
        (1, 3): parse_poly("2/3*X1*X4", 4),
        (2, 3): parse_poly("-3/4*X2", 4),
    })


def assert_rational_obstructions(obstructions):
    for *_, poly in obstructions:
        assert poly.terms
        assert all(type(c) is Fraction for c in poly.terms.values())


def test_trisum_on_integer_multiple_equals_polynomial_oracle():
    cases = [catalog_bivector("deformed-mu", {"n": n}) for n in range(8, 13)]
    cases += [fractional_bivector(), fractional_bivector() * Fraction(-5, 7)]
    for biv in cases:
        obstructions = jacobi_trisum(biv)
        assert obstructions == jacobi_trisum_polynomial(biv)
        assert_rational_obstructions(obstructions)
    assert len(jacobi_trisum(fractional_bivector())) == 3


def test_integrability_error_message_is_unchanged():
    with pytest.raises(IntegrabilityError) as err:
        verify(fractional_bivector())
    assert str(err.value) == "not integrable: trisum(1,2,4) = -3/8*X2"
    assert err.value.witness == (0, 1, 3, parse_poly("-3/8*X2", 4))
    with pytest.raises(IntegrabilityError) as err:
        verify(catalog_bivector("deformed-mu", {"n": 9}), first_index=0)
    assert str(err.value) == "not integrable: trisum(2,3,4) = 3*X9"


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
    obstructions = jacobi_trisum(biv)
    assert obstructions == expected
    assert_rational_obstructions(obstructions)
    if known_integrable:
        assert expected == []
    assert integrability_via_forms(biv) == (not expected)
    if expected:
        with pytest.raises(IntegrabilityError) as err:
            verify(biv, first_index=0)
        assert err.value.witness == expected[0]


def sparse_wide_bivector(n, kind, rng):
    """1-6 entries on n variables with Fraction coefficients.

    ``random`` entries have mixed degree 0..2 and are rarely Poisson;
    ``log-canonical`` ones, P_ij = c_ij X_i X_j, are Poisson; ``perturbed``
    adds one random entry to a log-canonical bivector.  The pairs and most
    variables come from a few pooled indices, so the entries meet in many
    triples.
    """
    pool = sorted(rng.sample(range(n), rng.randint(3, 7)))
    pairs = [tuple(sorted(rng.sample(pool, 2))) for _ in range(rng.randint(1, 6))]

    def coeff():
        return Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))

    def random_entry():
        poly = Polynomial.zero(n)
        for _ in range(rng.randint(1, 2)):
            exps = [0] * n
            for _ in range(rng.randint(0, 2)):
                exps[rng.choice(pool) if rng.random() < 0.8 else rng.randrange(n)] += 1
            poly = poly + Polynomial.monomial(n, exps, coeff())
        return poly

    if kind == "random":
        return bivector_from_entries(n, {pair: random_entry() for pair in pairs})
    biv = bivector_from_entries(n, {(i, j): coeff() * V(n, i) * V(n, j) for i, j in pairs})
    if kind == "perturbed":
        biv = biv + bivector_from_entries(n, {tuple(sorted(rng.sample(pool, 2))): random_entry()})
    return biv


def test_entry_driven_routes_match_triple_driven_oracles_on_many_variables():
    # both routes start from the entries; the oracles visit every triple that
    # meets an entry (and reference_trisum every triple, where n allows)
    rng = random.Random(3434)
    verdicts = []
    for t in range(120):
        n = 20 if t % 60 == 0 else rng.randint(20, 200)
        biv = sparse_wide_bivector(n, ("random", "log-canonical", "perturbed")[t % 3], rng)
        expected = jacobi_trisum_polynomial(biv)
        obstructions = jacobi_trisum(biv)
        assert obstructions == expected, biv
        assert_rational_obstructions(obstructions)
        if t % 60 == 0:
            assert expected == reference_trisum(biv), biv
        verdict = assert_routes_agree(biv)
        assert verdict == (not expected), biv
        if expected:
            with pytest.raises(IntegrabilityError) as err:
                verify(biv, first_index=0)
            assert err.value.witness == expected[0]
        verdicts.append(verdict)
    assert verdicts.count(True) >= 40 and verdicts.count(False) >= 40


def test_one_entry_on_many_variables_verifies_in_milliseconds():
    # a scan of index pairs or triples took seconds here for a single entry
    n = 3000
    biv = bivector_from_entries(n, {(0, 1): V(n, 2)})
    start = time.perf_counter()
    structure = verify(biv)
    assert time.perf_counter() - start < 2.0
    assert isinstance(structure, PoissonStructure)
    assert integrability_via_forms(biv) and jacobi_trisum(biv) == []


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
