"""Acceptance suite: one test per published-value criterion, exact arithmetic.

Each test prints a single PASS/FAIL line (run pytest with -s or check the
captured output).  Expected values are asserted exactly as published; when
the exact computation disagrees with a published value the test fails with
the full expected-vs-computed table.  See notes/decisions.md at the
repository root of this build for the analysis of the failing tables.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from polypoisson.catalog import catalog_get
from polypoisson.cohomology import (
    cochain_in_coboundaries,
    cohomology_dims,
    delta,
    delta_via_forms,
)
from polypoisson.multivector import (
    MultiDerivation,
    integrability_via_forms,
    jacobi_trisum,
    phi_inverse,
    phi_map,
)
from polypoisson.poisson import IntegrabilityError, graded_integrability, verify
from polypoisson.poly import Polynomial
from polypoisson.reproduce import (
    CLASSIFIED_ENTRIES,
    P1_EXPECTED_TOTALS,
    P2_H22_EXPECTED,
    RIGID_K2_EXPECTED,
    check_catalog_integrability,
    check_p1_example,
    p2_delta1_rank,
    p2_h22,
    p2_rank_formula,
    check_rigid_k1,
    rigid_h2_degree2,
)

from conftest import random_bivector, random_cochain, random_poly


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] {criterion}"
    if detail:
        line += f" :: {detail}"
    print(line)


def test_criterion_1_p1_example_dimensions():
    t0 = time.time()
    result = check_p1_example(cutoff=6)
    elapsed = time.time() - t0
    detail = "; ".join(result["notes"])
    report(f"criterion 1 (P1 cohomology totals, {elapsed:.1f}s)", result["pass"], detail)
    failing = [r for r in result["rows"] if not r["pass"]]
    assert result["pass"], f"P1 example mismatches: {failing}"
    assert elapsed < 10


def test_criterion_2_p2_coboundary_rank_formulas():
    t0 = time.time()
    rows = []
    for n in range(2, 9):
        expected = p2_rank_formula(n)
        computed = p2_delta1_rank(n)
        rows.append((n, expected, computed))
    elapsed = time.time() - t0
    table = ", ".join(f"n={n}: published {e} / computed {c}" for n, e, c in rows)
    passed = all(e == c for _, e, c in rows)
    report(f"criterion 2 (degree-2 coboundary rank formulas, {elapsed:.1f}s)", passed, table)
    assert passed, (
        "published closed forms for the degree-2 coboundary rank do not match "
        f"the exact ranks: {table}"
    )


def test_criterion_3_p2_degree2_cohomology():
    t0 = time.time()
    rows = [(n, expected, p2_h22(n)) for n, expected in sorted(P2_H22_EXPECTED.items())]
    elapsed = time.time() - t0
    table = ", ".join(f"n={n}: published {e} / computed {c}" for n, e, c in rows)
    passed = all(e == c for _, e, c in rows)
    report(f"criterion 3 (P2 degree-2 H^2 table, {elapsed:.1f}s)", passed, table)
    assert passed, (
        f"published degree-2 H^2 dimensions do not match the exact computation: {table}"
    )


def test_criterion_4_rigid_degree1_invariant_h2():
    t0 = time.time()
    result = check_rigid_k1(range(7, 11))
    elapsed = time.time() - t0
    failing = [r["label"] for r in result["rows"] if not r["pass"]]
    report(
        f"criterion 4 (rigid invariant degree-1 H^2, n=7..10, {elapsed:.1f}s)",
        result["pass"],
        "dimension 1 with the published generator" if result["pass"] else str(failing),
    )
    assert result["pass"], f"mismatches: {failing}; notes: {result['notes']}"
    assert elapsed < 60


def test_criterion_5_rigid_degree2_invariant_h2():
    t0 = time.time()
    rows = [(n, RIGID_K2_EXPECTED[n], rigid_h2_degree2(n)) for n in range(5, 11)]
    elapsed = time.time() - t0
    table = ", ".join(f"n={n}: published {e} / computed {c}" for n, e, c in rows)
    passed = all(e == c for _, e, c in rows)
    report(f"criterion 5 (rigid invariant degree-2 H^2, {elapsed:.1f}s)", passed, table)
    assert passed, (
        f"published invariant degree-2 H^2 values do not all match: {table}"
    )
    assert elapsed < 120


def test_criterion_6_classification_verification():
    t0 = time.time()
    result = check_catalog_integrability(samples=20)
    elapsed = time.time() - t0
    failing = [r["label"] for r in result["rows"] if not r["pass"]]
    entry_count = len(CLASSIFIED_ENTRIES)
    report(
        f"criterion 6 (classified structures verify, {elapsed:.1f}s)",
        result["pass"],
        f"{entry_count} families x 20 admissible parameter points",
    )
    assert result["pass"], f"failures: {failing}"
    assert elapsed < 10


def test_criterion_7_coboundary_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(777)
    structures = [
        catalog_get("P1"),                # three variables
        catalog_get("P2", {"n": 4}),      # four variables
        catalog_get("rigid", {"n": 4}),   # five variables
    ]
    checked = mismatches = 0
    for S in structures:
        n = S.n
        for k in range(0, min(4, n)):
            for _ in range(19):
                phi = random_cochain(n, k, 3, rng)
                if delta(S, phi) != delta_via_forms(S, phi):
                    mismatches += 1
                checked += 1
    elapsed = time.time() - t0
    passed = mismatches == 0 and checked >= 200
    report(
        f"criterion 7 (two coboundary routes agree, {elapsed:.1f}s)",
        passed,
        f"{checked} random cochains, {mismatches} mismatches",
    )
    assert checked >= 200
    assert mismatches == 0
    assert elapsed < 60


def test_criterion_8_property_suites():
    t0 = time.time()
    rng = random.Random(31337)
    failures = []

    # d(d(form)) = 0 and graded commutativity
    from test_exterior import random_form

    for _ in range(100):
        n = rng.randint(3, 5)
        a = random_form(n, rng.randint(0, 2), 2, rng)
        b = random_form(n, rng.randint(0, 2), 2, rng)
        if not a.d().d().is_zero:
            failures.append("dd != 0")
        if a.wedge(b) != b.wedge(a) * ((-1) ** (a.k * b.k)):
            failures.append("graded commutativity")

    # Phi round trip
    for _ in range(100):
        n = rng.randint(2, 5)
        phi = random_cochain(n, rng.randint(0, n), 2, rng)
        if phi_inverse(phi_map(phi)) != phi:
            failures.append("phi round trip")

    # delta o delta = 0 over verified structures
    structures = [catalog_get("P1"), catalog_get("rigid", {"n": 4})]
    for _ in range(100):
        S = structures[rng.randrange(len(structures))]
        phi = random_cochain(S.n, rng.randint(0, 3), 3, rng)
        if not delta(S, delta(S, phi)).is_zero:
            failures.append("delta squared")

    # bracket Leibniz and Jacobi
    S = catalog_get("P1")
    for _ in range(100):
        p, q, r = (random_poly(3, 2, rng, max_terms=2) for _ in range(3))
        if S.bracket(p * q, r) != p * S.bracket(q, r) + q * S.bracket(p, r):
            failures.append("Leibniz")
        jac = (
            S.bracket(S.bracket(p, q), r)
            + S.bracket(S.bracket(q, r), p)
            + S.bracket(S.bracket(r, p), q)
        )
        if not jac.is_zero:
            failures.append("Jacobi")

    # rank-nullity on computed slices (asserted internally too)
    for n, ks, ds in ((3, range(0, 4), range(0, 4)), (4, range(0, 3), range(0, 3))):
        S = catalog_get("P2", {"n": n})
        rep = cohomology_dims(S, ks, ds)
        for row in rep.rows:
            if row.dim_Z + (row.dim_chi - row.dim_Z) != row.dim_chi:
                failures.append("rank-nullity")
            if row.dim_B > row.dim_Z:
                failures.append("B exceeds Z")

    # trisum vs form criterion on random bivectors
    for _ in range(100):
        n = rng.randint(3, 5)
        biv = random_bivector(n, 2, rng)
        if integrability_via_forms(biv) != (not jacobi_trisum(biv)):
            failures.append("integrability oracle")

    elapsed = time.time() - t0
    passed = not failures
    report(
        f"criterion 8 (property suites, {elapsed:.1f}s)",
        passed,
        "600 randomized cases across six properties" if passed else str(failures),
    )
    assert passed, failures
    assert elapsed < 60
