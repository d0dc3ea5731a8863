"""Built-in named Poisson structures with their documented expectations.

Each entry records where the structure is printed in the source article
(the ``source`` anchor), how to build its bivector from rational parameters,
the admissibility constraints on those parameters, and any published values
the reproduction harness checks against.  Three-variable structures written
as 1-forms decode through the shuffle correspondence
Omega = P_12 dX3 - P_13 dX2 + P_23 dX1, which is exactly ``phi_inverse``;
the round trip back to the printed form is tested.

Transcription notes (errata) are attached to entries whose printed form
cannot be integrable as displayed; the stored structure is the minimal
sign/label correction that verifies, and the note says what changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .exterior import ExteriorForm
from .multivector import MultiDerivation, bivector_from_entries, phi_inverse
from .poisson import PoissonStructure, verify
from .poly import Polynomial

Params = Mapping[str, Fraction]


@dataclass(frozen=True)
class ParamSpec:
    name: str
    constraint: str = ""
    admissible: Callable[[Fraction], bool] = lambda _: True
    integer: bool = False


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    source: str
    params: tuple[ParamSpec, ...]
    build: Callable[[Params], MultiDerivation]
    first_index: int = 1
    expected: Optional[dict] = None
    expect_integrable: Callable[[Params], bool] = lambda _: True
    notes: tuple[str, ...] = ()


def _v3(i: int) -> Polynomial:
    """Variable X_i (1-based label) in three variables."""
    return Polynomial.variable(3, i - 1)


def _c3(value: Fraction | int) -> Polynomial:
    return Polynomial.constant(3, value)


def _one_form(coeffs: Sequence[Polynomial]) -> ExteriorForm:
    """A 1-form C1 dX1 + C2 dX2 + C3 dX3 in three variables."""
    return ExteriorForm(3, 1, {(i,): c for i, c in enumerate(coeffs)})


def _decode(coeffs: Sequence[Polynomial]) -> MultiDerivation:
    return phi_inverse(_one_form(coeffs))


def _need(params: Params, *names: str) -> list[Fraction]:
    missing = [m for m in names if m not in params]
    if missing:
        raise ValueError(f"missing parameters: {', '.join(missing)}")
    return [Fraction(params[m]) for m in names]


# -- concrete families ---------------------------------------------------------


def _p1(_: Params) -> MultiDerivation:
    return bivector_from_entries(
        3, {(0, 1): _v3(2), (0, 2): _v3(3) * 2}
    )


def _p2(params: Params) -> MultiDerivation:
    (n,) = _need(params, "n")
    n = int(n)
    if n < 2:
        raise ValueError("P2 needs n >= 2")
    entries = {
        (0, i): Polynomial.variable(n, i) * (i)
        for i in range(1, n)
    }
    return bivector_from_entries(n, entries)


def _rigid(params: Params) -> MultiDerivation:
    (n,) = _need(params, "n")
    n = int(n)
    if n < 3:
        raise ValueError("the rigid family needs n >= 3")
    nv = n + 1  # variables X0..Xn, internal indices equal labels
    entries: dict[tuple[int, int], Polynomial] = {}
    for i in range(1, n + 1):
        entries[(0, i)] = Polynomial.variable(nv, i) * i
    for i in range(2, n):
        entries[(1, i)] = Polynomial.variable(nv, i + 1)
    for i in range(3, n - 1):
        entries[(2, i)] = Polynomial.variable(nv, i + 2)
    return bivector_from_entries(nv, entries)


def _deformed_mu(params: Params) -> MultiDerivation:
    (n,) = _need(params, "n")
    n = int(n)
    if n < 7:
        raise ValueError("the deformed multiplication is stated for n >= 7")
    nv = n + 1
    X = lambda i: Polynomial.variable(nv, i)
    entries: dict[tuple[int, int], Polynomial] = {}
    for i in range(1, n + 1):
        entries[(0, i)] = X(i) * i
    for i in range(2, n):
        entries[(1, i)] = X(i + 1)
    entries[(2, 3)] = X(5)
    for i in range(4, n - 1):
        entries[(2, i)] = X(i + 2) * (5 - i)
    for i in range(4, n - 2):
        entries[(3, i)] = X(i + 3)
    return bivector_from_entries(nv, entries)


def _linear_form_1(_: Params) -> MultiDerivation:
    return _decode([_c3(0), _c3(0), _v3(3)])


def _linear_form_2(_: Params) -> MultiDerivation:
    return _decode([_v3(1), _v3(3), _v3(2)])


def _linear_form_3(params: Params) -> MultiDerivation:
    (alpha,) = _need(params, "alpha")
    return _decode([_c3(0), _v3(3) * (-alpha), _v3(2)])


def _linear_form_4(_: Params) -> MultiDerivation:
    return _decode([_c3(0), -_v3(3), _v3(2) + _v3(3)])


def _omega1(params: Params) -> MultiDerivation:
    a, b, c, e = _need(params, "a", "b", "c", "e")
    c1 = _v3(1) ** 2 * a - _v3(2) ** 2 * Fraction(b, 2) - _v3(1) * _v3(2) * (2 * c)
    c2 = -(_v3(1) ** 2 * c + _v3(2) ** 2 * e + _v3(1) * _v3(2) * b)
    return _decode([c1, c2, _v3(3)])


def _omega2(params: Params) -> MultiDerivation:
    a, b, c, e = _need(params, "a", "b", "c", "e")
    c1 = _v3(1) + _v3(1) ** 2 * a - _v3(2) ** 2 * Fraction(b, 2) - _v3(1) * _v3(2) * (2 * c)
    c2 = _v3(3) - _v3(1) ** 2 * c - _v3(2) ** 2 * e - _v3(1) * _v3(2) * b
    return _decode([c1, c2, _v3(2)])


def _omega3(params: Params) -> MultiDerivation:
    a, b, c = _need(params, "a", "b", "c")
    c1 = _v3(1) * _v3(3) * a + _v3(2) * _v3(3) * b
    c2 = _v3(1) * _v3(3) * b + _v3(2) * _v3(3) * c
    return _decode([c1, c2, _v3(3)])


def _omega4(params: Params) -> MultiDerivation:
    (a,) = _need(params, "a")
    c2 = _v3(3) + _v3(1) * _v3(3) * a
    c3 = _v3(2) + _v3(1) * _v3(2) * a
    return _decode([_v3(1), c2, c3])


def _omega5(params: Params) -> MultiDerivation:
    (a,) = _need(params, "a")
    c2 = _v3(3) - _v3(1) ** 2 * a - _v3(2) * _v3(3) * (2 * a)
    return _decode([_v3(1), c2, _v3(2)])


def _omega6(params: Params) -> MultiDerivation:
    a, alpha = _need(params, "a", "alpha")
    c1 = _v3(1) * _v3(3) * a
    c2 = _v3(3) * (-alpha)
    c3 = _v3(2) - _v3(1) ** 2 * (a / (2 * alpha))
    return _decode([c1, c2, c3])


def _omega7(params: Params) -> MultiDerivation:
    a, b = _need(params, "a", "b")
    c1 = _v3(3) ** 2 * a
    c2 = -(_v3(3) + _v3(3) ** 2 * b)
    c3 = _v3(2) + _v3(3)
    return _decode([c1, c2, c3])


def _omega8(params: Params) -> MultiDerivation:
    a, b = _need(params, "a", "b")
    c1 = _v3(2) * _v3(3) * a
    c2 = -(_v3(3) - _v3(1) * _v3(3) * a + _v3(2) * _v3(3) * b)
    return _decode([c1, c2, _c3(1)])


def _omega9(params: Params) -> MultiDerivation:
    a, b, c, e, f, g = _need(params, "a", "b", "c", "e", "f", "g")
    c1 = (
        _v3(1) ** 2 * g
        - _v3(2) ** 2 * Fraction(b, 2)
        + _v3(3) ** 2 * Fraction(f, 2)
        + _v3(1) * _v3(3) * (2 * c)
    )
    c2 = -(_v3(2) + _v3(2) ** 2 * a + _v3(1) * _v3(2) * b)
    c3 = _c3(1) + _v3(1) ** 2 * c + _v3(3) ** 2 * e + _v3(1) * _v3(3) * f
    return _decode([c1, c2, c3])


def _omega10(params: Params) -> MultiDerivation:
    (a,) = _need(params, "a")
    return _decode([_c3(1) + _v3(1) ** 2 * a, _v3(3), _v3(2)])


def _omega11(params: Params) -> MultiDerivation:
    a, b, c = _need(params, "a", "b", "c")
    c1 = _c3(1) + _v3(1) ** 2 * a
    c2 = _v3(3) + _v3(3) ** 2 * b + _v3(2) * _v3(3) * c
    c3 = _v3(2) + _v3(2) ** 2 * Fraction(c, 2) + _v3(2) * _v3(3) * (2 * b)
    return _decode([c1, c2, c3])


def _nf39_1(_: Params) -> MultiDerivation:
    return _decode([_c3(0), -_v3(3), _c3(1)])


def _nf39_2(_: Params) -> MultiDerivation:
    return _decode([_c3(0), _c3(-1), _v3(3)])


def _nf39_3(_: Params) -> MultiDerivation:
    return _decode([_c3(1), _v3(3), _v3(2)])


def _nonzero(x: Fraction) -> bool:
    return x != 0


def _omega6_alpha(x: Fraction) -> bool:
    return x != 0 and x != -1


_FREE = ParamSpec


def _entry_list() -> list[CatalogEntry]:
    quad = "degree-2 coefficients"
    entries = [
        CatalogEntry(
            name="P1",
            description="{X1,X2}=X2, {X1,X3}=2*X3, {X2,X3}=0 on three variables",
            source="sec. 2.2, example",
            params=(),
            build=_p1,
            expected={
                "integrable": True,
                "H_totals": {0: 1, 1: 3, 2: 2, 3: 0},
                "H2_generator_forms": ["X3*dX2", "X2^2*dX2"],
            },
        ),
        CatalogEntry(
            name="P2",
            description="[X1,Xi]=(i-1)*Xi for i=2..n on n variables",
            source="sec. 2.2, application",
            params=(ParamSpec("n", "integer n >= 2", lambda x: x >= 2, integer=True),),
            build=_p2,
            expected={
                "integrable": True,
                "dim_B2_2": {
                    "even": "n*(2*n^2-3*n+2)/8",
                    "odd": "(n^2-1)*(2*n-1)/8",
                },
                "dim_H2_2": {2: 1, 3: 3, 4: 8, 5: 16},
            },
        ),
        CatalogEntry(
            name="rigid",
            description=(
                "rank-one solvable structure on X0..Xn: {X0,Xi}=i*Xi, "
                "{X1,Xi}=X_{i+1}, {X2,Xi}=X_{i+2}"
            ),
            source="sec. 4.3",
            params=(ParamSpec("n", "integer n >= 3", lambda x: x >= 3, integer=True),),
            build=_rigid,
            first_index=0,
            expected={
                "integrable": True,
                "H2_invariant_degree1": {"n>=7": 1},
                "H2_invariant_degree2": {5: 2, 6: 0, "n>=7": 0},
            },
        ),
        CatalogEntry(
            name="deformed-mu",
            description="deformed multiplication of the rigid family, for cocycle tests",
            source="sec. 4.3, closing remark",
            params=(ParamSpec("n", "integer n >= 7", lambda x: x >= 7, integer=True),),
            build=_deformed_mu,
            first_index=0,
            # The printed deformation direction composes with itself only when
            # slots reach back to X2/X3, which first happens at n = 9; for
            # n = 7 and 8 the deformed bracket satisfies Jacobi exactly.
            expect_integrable=lambda p: int(p["n"]) < 9,
            expected={"integrable": "False for n >= 9, True for n in {7, 8}"},
            notes=(
                "stated as non-Lie; the Jacobi obstruction vanishes identically "
                "for n = 7, 8 and is nonzero from n = 9 on",
            ),
        ),
        CatalogEntry(
            name="L1",
            description="linear normal form X3*dX3",
            source="sec. 3.1, first linear form",
            params=(),
            build=_linear_form_1,
        ),
        CatalogEntry(
            name="L2",
            description="linear normal form X2*dX3 + X3*dX2 + X1*dX1",
            source="sec. 3.1, second linear form",
            params=(),
            build=_linear_form_2,
        ),
        CatalogEntry(
            name="L3",
            description="linear normal form X2*dX3 - alpha*X3*dX2",
            source="sec. 3.1, third linear form",
            params=(ParamSpec("alpha"),),
            build=_linear_form_3,
        ),
        CatalogEntry(
            name="L4",
            description="linear normal form (X2+X3)*dX3 - X3*dX2",
            source="sec. 3.1, fourth linear form",
            params=(),
            build=_linear_form_4,
        ),
        CatalogEntry(
            name="Omega1",
            description=f"closed quadratic part over X3*dX3 ({quad} a,b,c,e)",
            source="eq. (3.3)",
            params=(_FREE("a"), _FREE("b"), _FREE("c"), _FREE("e")),
            build=_omega1,
        ),
        CatalogEntry(
            name="Omega2",
            description=f"closed quadratic part over the second linear form ({quad} a,b,c,e)",
            source="eq. (3.4)",
            params=(_FREE("a"), _FREE("b"), _FREE("c"), _FREE("e")),
            build=_omega2,
            notes=(
                "printed with a X3*dX3 term whose linear part cannot verify; "
                "stored with X2*dX3, matching the stated second linear form",
            ),
        ),
        CatalogEntry(
            name="Omega3",
            description="X3-divisible quadratic part over X3*dX3 (a,b,c)",
            source="eq. (3.5)",
            params=(_FREE("a"), _FREE("b"), _FREE("c")),
            build=_omega3,
        ),
        CatalogEntry(
            name="Omega4",
            description="X1*dX1 + (X3+a*X1*X3)*dX2 + (X2+a*X1*X2)*dX3",
            source="eq. (3.6), first structure",
            params=(_FREE("a"),),
            build=_omega4,
            notes=(
                "printed with (X3-a*X1*X3)*dX2, which fails the Jacobi test "
                "for every nonzero a; the sign is flipped (equivalently, a is "
                "renamed to -a) so the family verifies",
            ),
        ),
        CatalogEntry(
            name="Omega5",
            description="X1*dX1 + (X3-a*X1^2-2a*X2*X3)*dX2 + X2*dX3",
            source="eq. (3.6), second structure",
            params=(_FREE("a"),),
            build=_omega5,
        ),
        CatalogEntry(
            name="Omega6",
            description="a*X1*X3*dX1 - alpha*X3*dX2 + (X2-a/(2 alpha)*X1^2)*dX3",
            source="eq. (3.7)",
            params=(
                _FREE("a"),
                ParamSpec("alpha", "alpha not in {0, -1}", _omega6_alpha),
            ),
            build=_omega6,
        ),
        CatalogEntry(
            name="Omega7",
            description="a*X3^2*dX1 - (X3+b*X3^2)*dX2 + (X2+X3)*dX3, a != 0",
            source="eq. (3.8)",
            params=(ParamSpec("a", "a != 0", _nonzero), _FREE("b")),
            build=_omega7,
        ),
        CatalogEntry(
            name="NF39-1",
            description="affine normal form dX3 - X3*dX2",
            source="eq. (3.9), first form",
            params=(),
            build=_nf39_1,
        ),
        CatalogEntry(
            name="NF39-2",
            description="affine normal form X3*dX3 - dX2",
            source="eq. (3.9), second form",
            params=(),
            build=_nf39_2,
        ),
        CatalogEntry(
            name="NF39-3",
            description="affine normal form dX1 + X3*dX2 + X2*dX3",
            source="eq. (3.9), third form",
            params=(),
            build=_nf39_3,
            notes=(
                "also printed later with the summands reordered; same form",
            ),
        ),
        CatalogEntry(
            name="Omega8",
            description="a*X2*X3*dX1 - (X3-a*X1*X3+b*X2*X3)*dX2 + dX3, a != 0",
            source="eq. (3.10)",
            params=(ParamSpec("a", "a != 0", _nonzero), _FREE("b")),
            build=_omega8,
        ),
        CatalogEntry(
            name="Omega9",
            description="six-parameter family over X3*dX3 - dX2 (a,b,c,e,f,g)",
            source="eq. (3.11)",
            params=tuple(_FREE(x) for x in "abcefg"),
            build=_omega9,
        ),
        CatalogEntry(
            name="Omega10",
            description="(1+a*X1^2)*dX1 + X3*dX2 + X2*dX3",
            source="eq. (3.12)",
            params=(_FREE("a"),),
            build=_omega10,
        ),
        CatalogEntry(
            name="Omega11",
            description=(
                "(1+a*X1^2)*dX1 + (X3+b*X3^2+c*X2*X3)*dX2 "
                "+ (X2+c/2*X2^2+2b*X2*X3)*dX3"
            ),
            source="eq. (3.13)",
            params=(_FREE("a"), _FREE("b"), _FREE("c")),
            build=_omega11,
        ),
    ]
    return entries


CATALOG: dict[str, CatalogEntry] = {e.name: e for e in _entry_list()}


def catalog_entries() -> list[CatalogEntry]:
    return list(CATALOG.values())


def _coerce_params(entry: CatalogEntry, params: Optional[Mapping]) -> dict[str, Fraction]:
    given = {k: Fraction(v) for k, v in (params or {}).items()}
    unknown = set(given) - {p.name for p in entry.params}
    if unknown:
        raise ValueError(f"unknown parameters for {entry.name}: {sorted(unknown)}")
    missing = [p.name for p in entry.params if p.name not in given]
    if missing:
        raise ValueError(f"{entry.name} requires parameters: {', '.join(missing)}")
    for spec in entry.params:
        value = given[spec.name]
        if spec.integer and value.denominator != 1:
            raise ValueError(f"parameter {spec.name} must be an integer")
        if not spec.admissible(value):
            raise ValueError(
                f"parameter {spec.name}={value} violates the constraint "
                f"{spec.constraint or 'none'}"
            )
    return given


def catalog_get(name: str, params: Optional[Mapping] = None) -> PoissonStructure:
    """Build and verify a catalog structure; verification failure on an entry
    expected to be integrable signals a transcription bug."""
    if name not in CATALOG:
        raise KeyError(f"unknown catalog entry {name!r}")
    entry = CATALOG[name]
    given = _coerce_params(entry, params)
    bivector = entry.build(given)
    return verify(bivector, first_index=entry.first_index)


def catalog_bivector(name: str, params: Optional[Mapping] = None) -> MultiDerivation:
    """The raw bivector, without the integrability gate (for deformed-mu)."""
    if name not in CATALOG:
        raise KeyError(f"unknown catalog entry {name!r}")
    entry = CATALOG[name]
    return entry.build(_coerce_params(entry, params))


def catalog_expected(name: str) -> dict:
    if name not in CATALOG:
        raise KeyError(f"unknown catalog entry {name!r}")
    expected = CATALOG[name].expected
    if expected is None:
        raise ValueError(f"no expected results recorded for {name!r}")
    return dict(expected)
