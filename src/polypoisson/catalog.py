"""Built-in named Poisson structures with their documented expectations.

Each entry records where the structure is printed in the source article
(the ``source`` anchor), how to build its bivector from rational parameters,
the admissibility constraints on those parameters, and any published values
the reproduction harness checks against.  A builder takes its parameters by
the names of its ``ParamSpec``s, an integer parameter as an ``int``.  The
published record is read-only (mappings behind ``types.MappingProxyType``,
lists as tuples); ``catalog_expected`` hands out a plain, mutable copy.

Every entry is written as data.  A three-variable structure printed as a
1-form c1 dX1 + c2 dX2 + c3 dX3 lists each ci as (exponents, coefficient)
terms over the exponent constants ``ONE``, ``X1``, ..., ``X2X3``, and
``_decode`` applies the shuffle correspondence
Omega = P_12 dX3 - P_13 dX2 + P_23 dX1 directly: P_23 = c1, P_13 = -c2,
P_12 = c3.  The tests check that this is ``phi_inverse`` of the printed form
and that ``phi_map`` of every built entry gives its table back.  The linear
families list one (pair, variable, coefficient) row per bracket
{X_i, X_j} = coefficient * X_variable.  Neither builder does polynomial
arithmetic.

Transcription notes (errata) are attached to entries whose printed form
cannot be integrable as displayed; the stored structure is the minimal
sign/label correction that verifies, and the note says what changed.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional

from .multivector import MultiDerivation
from .poisson import PoissonStructure, verify
from .poly import Polynomial, add_into

Params = Mapping[str, Fraction]
# the terms of one 1-form coefficient: (exponent tuple, coefficient) pairs
Terms = Iterable[tuple[tuple[int, int, int], Fraction | int]]

ONE = (0, 0, 0)
X1, X2, X3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
X1X1, X2X2, X3X3 = (2, 0, 0), (0, 2, 0), (0, 0, 2)
X1X2, X1X3, X2X3 = (1, 1, 0), (1, 0, 1), (0, 1, 1)


class ParamSpec(NamedTuple):
    name: str
    constraint: str = ""
    admissible: Callable[[Fraction], bool] = lambda _: True
    integer: bool = False


class _Entry(NamedTuple):
    name: str
    description: str
    source: str
    params: tuple[ParamSpec, ...]
    build: Callable[..., MultiDerivation]  # takes each of ``params`` by name
    first_index: int = 1
    expected: Optional[Mapping] = None
    expect_integrable: Callable[[Params], bool] = lambda _: True
    notes: tuple[str, ...] = ()


class CatalogEntry(_Entry):
    """One named structure; ``expected`` is read-only however the entry is
    built, by the constructor, ``_make`` or ``_replace``."""

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> CatalogEntry:
        fields = _Entry(*args, **kwargs)._asdict()
        fields["expected"] = _read_only(fields["expected"])
        return super().__new__(cls, **fields)

    @classmethod
    def _make(cls, iterable: Iterable) -> CatalogEntry:
        return cls(*iterable)


def _read_only(value: Any) -> Any:
    """``value`` with every dict behind a mappingproxy and every list a tuple."""
    if isinstance(value, dict):
        return MappingProxyType({k: _read_only(v) for k, v in value.items()})
    if isinstance(value, list):
        return tuple(_read_only(v) for v in value)
    return value


def _writable(value: Any) -> Any:
    """Inverse of ``_read_only``: plain dicts and lists, copied all the way down.

    ``copy.deepcopy`` cannot copy a mappingproxy, so the copy is built here.
    """
    if isinstance(value, MappingProxyType):
        return {k: _writable(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_writable(v) for v in value]
    return value


def _coefficients(terms: Terms) -> dict[tuple[int, ...], Fraction]:
    """The terms as a coefficient dict, repeated monomials merged and zeros dropped."""
    return add_into({}, ((e, Fraction(c)) for e, c in terms))


def _decode(c1: Terms, c2: Terms, c3: Terms) -> MultiDerivation:
    """The bivector of the 1-form c1 dX1 + c2 dX2 + c3 dX3 on three variables."""
    shuffled = (
        ((1, 2), _coefficients(c1)),
        ((0, 2), _coefficients((e, -c) for e, c in c2)),
        ((0, 1), _coefficients(c3)),
    )
    values = {pair: Polynomial._trusted(3, terms) for pair, terms in shuffled if terms}
    return MultiDerivation._trusted(3, 2, values)


def _linear(nv: int, rows: Iterable[tuple[tuple[int, int], int, int]]) -> MultiDerivation:
    """The bivector on ``nv`` variables with P_pair = coefficient * X_variable per row.

    Pairs are increasing internal indices, each listed at most once; a row
    whose coefficient is 0 is dropped.
    """
    values = {
        pair: Polynomial._trusted(nv, {(0,) * v + (1,) + (0,) * (nv - v - 1): Fraction(c)})
        for pair, v, c in rows
        if c
    }
    return MultiDerivation._trusted(nv, 2, values)


# -- concrete families ---------------------------------------------------------


def _p1() -> MultiDerivation:
    return _linear(3, [((0, 1), 1, 1), ((0, 2), 2, 2)])


def _p2(n: int) -> MultiDerivation:
    return _linear(n, (((0, i), i, i) for i in range(1, n)))


def _rigid_ladder(n: int) -> list[tuple[tuple[int, int], int, int]]:
    """{X0, Xi} = i*Xi and {X1, Xi} = X_{i+1}, shared by rigid and deformed-mu."""
    return [((0, i), i, i) for i in range(1, n + 1)] + [((1, i), i + 1, 1) for i in range(2, n)]


def _rigid(n: int) -> MultiDerivation:
    # variables X0..Xn, internal indices equal labels
    return _linear(n + 1, _rigid_ladder(n) + [((2, i), i + 2, 1) for i in range(3, n - 1)])


def _deformed_mu(n: int) -> MultiDerivation:
    return _linear(n + 1, [
        *_rigid_ladder(n),
        ((2, 3), 5, 1),
        *(((2, i), i + 2, 5 - i) for i in range(4, n - 1)),
        *(((3, i), i + 3, 1) for i in range(4, n - 2)),
    ])


def _linear_form_1() -> MultiDerivation:
    return _decode([], [], [(X3, 1)])


def _linear_form_2() -> MultiDerivation:
    return _decode([(X1, 1)], [(X3, 1)], [(X2, 1)])


def _linear_form_3(alpha) -> MultiDerivation:
    return _decode([], [(X3, -alpha)], [(X2, 1)])


def _linear_form_4() -> MultiDerivation:
    return _decode([], [(X3, -1)], [(X2, 1), (X3, 1)])


def _omega1(a, b, c, e) -> MultiDerivation:
    return _decode(
        [(X1X1, a), (X2X2, -b / 2), (X1X2, -2 * c)],
        [(X1X1, -c), (X2X2, -e), (X1X2, -b)],
        [(X3, 1)],
    )


def _omega2(a, b, c, e) -> MultiDerivation:
    return _decode(
        [(X1, 1), (X1X1, a), (X2X2, -b / 2), (X1X2, -2 * c)],
        [(X3, 1), (X1X1, -c), (X2X2, -e), (X1X2, -b)],
        [(X2, 1)],
    )


def _omega3(a, b, c) -> MultiDerivation:
    return _decode([(X1X3, a), (X2X3, b)], [(X1X3, b), (X2X3, c)], [(X3, 1)])


def _omega4(a) -> MultiDerivation:
    return _decode([(X1, 1)], [(X3, 1), (X1X3, a)], [(X2, 1), (X1X2, a)])


def _omega5(a) -> MultiDerivation:
    return _decode([(X1, 1)], [(X3, 1), (X1X1, -a), (X2X3, -2 * a)], [(X2, 1)])


def _omega6(a, alpha) -> MultiDerivation:
    return _decode([(X1X3, a)], [(X3, -alpha)], [(X2, 1), (X1X1, -a / (2 * alpha))])


def _omega7(a, b) -> MultiDerivation:
    return _decode([(X3X3, a)], [(X3, -1), (X3X3, -b)], [(X2, 1), (X3, 1)])


def _omega8(a, b) -> MultiDerivation:
    return _decode([(X2X3, a)], [(X3, -1), (X1X3, a), (X2X3, -b)], [(ONE, 1)])


def _omega9(a, b, c, e, f, g) -> MultiDerivation:
    return _decode(
        [(X1X1, g), (X2X2, -b / 2), (X3X3, f / 2), (X1X3, 2 * c)],
        [(X2, -1), (X2X2, -a), (X1X2, -b)],
        [(ONE, 1), (X1X1, c), (X3X3, e), (X1X3, f)],
    )


def _omega10(a) -> MultiDerivation:
    return _decode([(ONE, 1), (X1X1, a)], [(X3, 1)], [(X2, 1)])


def _omega11(a, b, c) -> MultiDerivation:
    return _decode(
        [(ONE, 1), (X1X1, a)],
        [(X3, 1), (X3X3, b), (X2X3, c)],
        [(X2, 1), (X2X2, c / 2), (X2X3, 2 * b)],
    )


def _nf39_1() -> MultiDerivation:
    return _decode([], [(X3, -1)], [(ONE, 1)])


def _nf39_2() -> MultiDerivation:
    return _decode([], [(ONE, -1)], [(X3, 1)])


def _nf39_3() -> MultiDerivation:
    return _decode([(ONE, 1)], [(X3, 1)], [(X2, 1)])


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


def _coerce_params(entry: CatalogEntry, params: Optional[Mapping]) -> dict[str, Fraction | int]:
    """The checked parameters by name; an integer parameter as an ``int``."""
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
    return {p.name: int(given[p.name]) if p.integer else given[p.name] for p in entry.params}


def catalog_get(name: str, params: Optional[Mapping] = None) -> PoissonStructure:
    """Build and verify a catalog structure; verification failure on an entry
    expected to be integrable signals a transcription bug."""
    bivector = catalog_bivector(name, params)
    return verify(bivector, first_index=CATALOG[name].first_index)


def catalog_bivector(name: str, params: Optional[Mapping] = None) -> MultiDerivation:
    """The raw bivector, without the integrability gate (for deformed-mu)."""
    if name not in CATALOG:
        raise KeyError(f"unknown catalog entry {name!r}")
    entry = CATALOG[name]
    return entry.build(**_coerce_params(entry, params))


def catalog_expected(name: str) -> dict:
    """A plain, mutable copy of the entry's read-only published record."""
    if name not in CATALOG:
        raise KeyError(f"unknown catalog entry {name!r}")
    expected = CATALOG[name].expected
    if expected is None:
        raise ValueError(f"no expected results recorded for {name!r}")
    return _writable(expected)
