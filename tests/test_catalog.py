import json
import random
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path

import pytest

from polypoisson import catalog, reproduce
from polypoisson.catalog import (
    CATALOG,
    _decode,
    catalog_bivector,
    catalog_expected,
    catalog_get,
)
from polypoisson.exterior import ExteriorForm, format_form
from polypoisson.multivector import jacobi_trisum, phi_inverse, phi_map
from polypoisson.poisson import IntegrabilityError, graded_integrability, verify
from polypoisson.poly import Polynomial, monomial_basis
from polypoisson.reproduce import CLASSIFIED_ENTRIES, sample_params

GOLDEN = Path(__file__).parent / "golden" / "catalog_bivectors.json"
INTEGER_FAMILIES = {"P2": range(2, 25), "rigid": range(3, 25), "deformed-mu": range(7, 21)}


def golden_points():
    """The (entry, params) points pinned by the catalog golden.

    Ten seeded samples per parametric entry, then one sample per parameter
    that may be 0 with that parameter set to 0; every n of the integer
    families in ``INTEGER_FAMILIES``; the one point of each fixed entry.
    """
    rng = random.Random(51)
    points = []
    for entry in CATALOG.values():
        if entry.name in INTEGER_FAMILIES:
            points += [(entry.name, {"n": Fraction(n)}) for n in INTEGER_FAMILIES[entry.name]]
        elif not entry.params:
            points.append((entry.name, {}))
        else:
            points += [(entry.name, sample_params(entry.name, rng)) for _ in range(10)]
            for spec in entry.params:
                if spec.admissible(Fraction(0)):
                    params = sample_params(entry.name, rng)
                    params[spec.name] = Fraction(0)
                    points.append((entry.name, params))
    return points


def test_catalog_p1_entries():
    S = catalog_get("P1")
    x2, x3 = Polynomial.variable(3, 1), Polynomial.variable(3, 2)
    assert S.bivector.values == {(0, 1): x2, (0, 2): 2 * x3}


def test_catalog_p2_brackets():
    S = catalog_get("P2", {"n": 5})
    for i in range(1, 5):
        xi = Polynomial.variable(5, i)
        assert S.bracket(Polynomial.variable(5, 0), xi) == i * xi


def test_catalog_rigid_brackets():
    n = 7
    S = catalog_get("rigid", {"n": n})
    nv = n + 1
    X = lambda i: Polynomial.variable(nv, i)
    for i in range(1, n + 1):
        assert S.bracket(X(0), X(i)) == i * X(i)
    for i in range(2, n):
        assert S.bracket(X(1), X(i)) == X(i + 1)
    for i in range(3, n - 1):
        assert S.bracket(X(2), X(i)) == X(i + 2)
    assert S.bracket(X(3), X(4)).is_zero
    assert S.first_index == 0


def test_unknown_entry_and_param_validation():
    with pytest.raises(KeyError):
        catalog_get("nope")
    with pytest.raises(ValueError):
        catalog_get("P2")  # missing n
    with pytest.raises(ValueError):
        catalog_get("P2", {"n": 1})
    with pytest.raises(ValueError):
        catalog_get("Omega6", {"a": 1, "alpha": 0})
    with pytest.raises(ValueError):
        catalog_get("Omega7", {"a": 0, "b": 1})
    with pytest.raises(ValueError):
        catalog_get("P1", {"bogus": 1})


def test_expected_records():
    assert catalog_expected("P1")["H_totals"] == {0: 1, 1: 3, 2: 2, 3: 0}
    assert catalog_expected("P2")["dim_H2_2"] == {2: 1, 3: 3, 4: 8, 5: 16}
    assert "H2_invariant_degree2" in catalog_expected("rigid")
    with pytest.raises(ValueError):
        catalog_expected("L1")


def test_expected_records_are_copies():
    # a caller that edits the returned record must not rewrite the published
    # values that the catalog and reproduce check against
    record = catalog_expected("P1")
    record["H_totals"][0] = 99
    record["H2_generator_forms"].append("X1*dX1")
    catalog_expected("P2")["dim_H2_2"][2] = 99
    catalog_expected("rigid")["H2_invariant_degree2"][5] = 99
    assert CATALOG["P1"].expected["H_totals"] == {0: 1, 1: 3, 2: 2, 3: 0}
    assert CATALOG["P1"].expected["H2_generator_forms"] == ("X3*dX2", "X2^2*dX2")
    assert reproduce.P1_EXPECTED_TOTALS == {0: 1, 1: 3, 2: 2, 3: 0}
    assert reproduce.P2_H22_EXPECTED == {2: 1, 3: 3, 4: 8, 5: 16}
    assert CATALOG["rigid"].expected["H2_invariant_degree2"] == {5: 2, 6: 0, "n>=7": 0}


def test_reproduce_holds_copies_of_the_published_values():
    # a write through the catalog's own record is refused, and the values
    # that reproduce checks against stay as published
    with pytest.raises(TypeError):
        CATALOG["P1"].expected["H_totals"][1] = 99
    with pytest.raises(TypeError):
        CATALOG["P2"].expected["dim_H2_2"][2] = 99
    assert reproduce.P1_EXPECTED_TOTALS == {0: 1, 1: 3, 2: 2, 3: 0}
    assert reproduce.P2_H22_EXPECTED == {2: 1, 3: 3, 4: 8, 5: 16}


def test_p1_generators_are_read_from_the_catalog_record():
    # the two published representatives X3*dX2 and X2^2*dX2, built by hand
    x2, x3 = Polynomial.variable(3, 1), Polynomial.variable(3, 2)
    assert reproduce.p1_generators() == [
        phi_inverse(ExteriorForm.basis(3, (1,), x3)),
        phi_inverse(ExteriorForm.basis(3, (1,), x2 * x2)),
    ]
    labels = [r["label"] for r in reproduce.check_p1_example(cutoff=2)["rows"][4:]]
    assert labels == ["X3*dX2 is a cocycle", "X2^2*dX2 is a cocycle",
                      "X3*dX2 class is nonzero", "X2^2*dX2 class is nonzero"]


def test_published_records_are_read_only():
    def check(value):
        if isinstance(value, Mapping):
            key = next(iter(value))
            with pytest.raises(TypeError):
                value[key] = 99
            with pytest.raises(TypeError):
                del value[key]
            for item in value.values():
                check(item)
        else:
            assert not isinstance(value, (list, dict, set))
            if isinstance(value, tuple):
                for item in value:
                    check(item)

    records = [entry.expected for entry in CATALOG.values() if entry.expected is not None]
    assert len(records) == 4
    for record in records:
        check(record)
    with pytest.raises(AttributeError):
        CATALOG["P1"].expected["H2_generator_forms"].append("X1*dX1")
    with pytest.raises(AttributeError):
        CATALOG["P1"].expected = {}
    assert catalog_expected("P1") == {
        "integrable": True,
        "H_totals": {0: 1, 1: 3, 2: 2, 3: 0},
        "H2_generator_forms": ["X3*dX2", "X2^2*dX2"],
    }


def test_all_classified_entries_verify_at_random_parameters():
    rng = random.Random(424242)
    for name in CLASSIFIED_ENTRIES:
        count = 20 if CATALOG[name].params else 1
        for _ in range(count):
            params = sample_params(name, rng)
            S = catalog_get(name, params)  # raises on a transcription bug
            assert graded_integrability(S.bivector).all_hold


def _form_of(tables):
    """The 1-form c1 dX1 + c2 dX2 + c3 dX3 of three term tables, by polynomial sums."""
    form = ExteriorForm.zero(3, 1)
    for i, terms in enumerate(tables):
        for exps, coeff in terms:
            form = form + ExteriorForm.basis(3, (i,), Polynomial.monomial(3, exps, coeff))
    return form


def test_decode_is_phi_inverse_of_the_one_form():
    # the direct decode applies the shuffle rule; phi_inverse is the paper's
    # correspondence read through the signed shuffle sum
    rng = random.Random(1717)
    monomials = [e for d in range(3) for e in monomial_basis(3, d)]
    coefficients = (0, 1, -1, 2, Fraction(-3, 2), Fraction(1, 3))
    repeats = 0
    for _ in range(300):
        tables = [
            [(rng.choice(monomials), rng.choice(coefficients)) for _ in range(rng.randint(0, 6))]
            for _ in range(3)
        ]
        repeats += any(len({e for e, _ in t}) < len(t) for t in tables)
        assert _decode(*tables) == phi_inverse(_form_of(tables))
    assert repeats > 50
    assert _decode([(catalog.X1, 1), (catalog.X1, -1)], [], [(catalog.ONE, 0)]).is_zero


def test_omega_forms_roundtrip_to_printed_shape(monkeypatch):
    # the decode rule is phi_inverse of the printed 1-form; going back through
    # phi_map must reproduce it
    V = lambda i: Polynomial.variable(3, i - 1)
    S = catalog_get("Omega10", {"a": Fraction(1, 2)})
    omega = phi_map(S.bivector)
    expected = (
        ExteriorForm.basis(3, (0,), Polynomial.constant(3, 1) + Fraction(1, 2) * V(1) ** 2)
        + ExteriorForm.basis(3, (1,), V(3))
        + ExteriorForm.basis(3, (2,), V(2))
    )
    assert omega == expected
    # and every three-variable entry gives back the table it was written as
    tables = []
    monkeypatch.setattr(catalog, "_decode", lambda *cs: tables.append(cs) or _decode(*cs))
    rng = random.Random(31)
    for name in CLASSIFIED_ENTRIES:
        for _ in range(5 if CATALOG[name].params else 1):
            tables.clear()
            biv = catalog_bivector(name, sample_params(name, rng))
            assert len(tables) == 1
            assert phi_map(biv) == _form_of(tables[0]), name


def test_omega1_printed_form_text():
    S = catalog_get("Omega1", {"a": 1, "b": 2, "c": 0, "e": 0})
    omega = phi_map(S.bivector)
    # eq. (3.3) at (a, b, c, e) = (1, 2, 0, 0), expanded by hand:
    #   c1 = a*X1^2 - (b/2)*X2^2 - 2c*X1*X2 = X1^2 - X2^2
    #   c2 = -(c*X1^2 + e*X2^2 + b*X1*X2) = -2*X1*X2
    # so omega = c1*dX1 + c2*dX2 + X3*dX3; dc1/dX2 = dc2/dX1 = -2*X2, hence closed
    assert format_form(omega) == "X3*dX3 - 2*X1*X2*dX2 + (X1^2 - X2^2)*dX1"
    assert omega.d().is_zero


def test_linear_forms_are_lie_poisson():
    for name, params in (("L1", None), ("L2", None), ("L3", {"alpha": 3}), ("L4", None)):
        S = catalog_get(name, params)
        degrees = S.entry_degrees()
        assert degrees == [1]


def test_deformed_mu_jacobi_boundary():
    # the deformation direction composes with itself only once slots reach
    # back to the ladder generators, which first happens at n = 9
    for n in (7, 8):
        assert jacobi_trisum(catalog_bivector("deformed-mu", {"n": n})) == []
    for n in (9, 10, 11):
        obstructions = jacobi_trisum(catalog_bivector("deformed-mu", {"n": n}))
        assert obstructions, f"expected a Jacobi failure at n={n}"
        with pytest.raises(IntegrabilityError):
            verify(catalog_bivector("deformed-mu", {"n": n}))


def test_deformed_mu_direction_is_a_cocycle():
    # the difference between the deformed and undeformed brackets must be a
    # 2-cocycle of the rigid structure
    from polypoisson.cohomology import delta
    from polypoisson.reproduce import rigid_expected_cochain

    for n in (7, 9, 10):
        mu = catalog_bivector("deformed-mu", {"n": n})
        base = catalog_bivector("rigid", {"n": n})
        direction = mu - base
        assert direction == rigid_expected_cochain(n)
        S = catalog_get("rigid", {"n": n})
        assert delta(S, direction).is_zero


def test_catalog_listing_is_complete():
    names = {e.name for e in CATALOG.values()}
    assert {"P1", "P2", "rigid", "deformed-mu"} <= names
    assert {f"Omega{i}" for i in range(1, 12)} <= names
    assert {"L1", "L2", "L3", "L4", "NF39-1", "NF39-2", "NF39-3"} <= names


def test_catalog_bivectors_match_golden():
    # recorded when every entry was built through polynomial arithmetic and
    # phi_inverse; the printed bivector and its Fraction coefficients must not move
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    points = golden_points()
    assert [(g["entry"], g["params"]) for g in golden] == [
        (name, {k: str(v) for k, v in params.items()}) for name, params in points
    ]
    for record, (name, params) in zip(golden, points):
        biv = catalog_bivector(name, params)
        assert repr(biv) == record["repr"], (name, params)
        for idx, p in biv.values.items():
            assert type(idx) is tuple and p.n == biv.n
            assert all(type(e) is tuple and type(c) is Fraction for e, c in p.terms.items())
