"""Shared random generators for the test suite (seeded, deterministic), and a
counter of the integrability pass."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from polypoisson.multivector import MultiDerivation, bivector_from_entries
from polypoisson.poly import Polynomial, monomial_basis


def random_poly(n: int, max_degree: int, rng: random.Random, max_terms: int = 4) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        d = rng.randint(0, max_degree)
        exps = rng.choice(monomial_basis(n, d))
        terms[exps] = terms.get(exps, Fraction(0)) + Fraction(
            rng.randint(-4, 4), rng.randint(1, 3)
        )
    return Polynomial(n, terms)


def random_cochain(n: int, k: int, max_degree: int, rng: random.Random,
                   density: float = 0.5) -> MultiDerivation:
    values = {}
    for idx in itertools.combinations(range(n), k):
        if rng.random() < density:
            p = random_poly(n, max_degree, rng)
            if not p.is_zero:
                values[idx] = p
    return MultiDerivation(n, k, values)


def random_bivector(n: int, max_degree: int, rng: random.Random) -> MultiDerivation:
    entries = {}
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < 0.6:
            p = random_poly(n, max_degree, rng, max_terms=2)
            if not p.is_zero:
                entries[(i, j)] = p
    return bivector_from_entries(n, entries)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(987654321)


@pytest.fixture
def passes(monkeypatch) -> dict[str, list]:
    """Record each bivector scaled by ``_integer_multiple`` and each multiple
    summed by ``_trisum``: the two halves of a bivector's integrability pass."""
    from polypoisson import multivector

    calls: dict[str, list] = {"scaled": [], "summed": []}
    scale, trisum = multivector._integer_multiple, multivector._trisum
    monkeypatch.setattr(multivector, "_integer_multiple",
                        lambda biv: calls["scaled"].append(biv) or scale(biv))
    monkeypatch.setattr(multivector, "_trisum", lambda lcm, multiple:
                        calls["summed"].append(multiple) or trisum(lcm, multiple))
    return calls
