"""Validated Poisson structures, their bracket, and order-2 equivalences.

``verify`` runs both integrability criteria (the trisum of Jacobi
obstructions and the exterior-form test) and refuses to hand out a
``PoissonStructure`` unless both agree that the bivector is integrable.
Disagreement between the two criteria is a bug in this library, never a
property of the input, and aborts loudly.

``graded_integrability`` specializes to three variables and entries of
degree at most two: the form of the bivector splits as
Omega_0 + Omega_1 + Omega_2 by coefficient degree, and integrability is the
simultaneous vanishing of the four graded pieces of Omega ^ d(Omega).

An order-2 equivalence is a linear bijection of the polynomial vector space
that fixes constants and every monomial of degree >= 2 and maps each
variable into (degree 1) + (degree 2).  It acts on a degree-<= 2 structure
by Y_i = f(X_i), {Y_i, Y_j} = f^{-1}({f(X_i), f(X_j)}).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .exterior import ExteriorForm
from .multivector import (
    MultiDerivation,
    bivector_entry,
    bivector_from_entries,
    bracket_with_coordinate,
    integrability_via_forms,
    jacobi_trisum,
    phi_map,
)
from .poly import Polynomial, Scalar, format_poly


class IntegrabilityError(ValueError):
    """A bivector failed the Jacobi test; carries the first witness triple."""

    def __init__(self, witness: tuple[int, int, int, Polynomial], first_index: int = 1) -> None:
        i, j, k, poly = witness
        self.witness = witness
        self.first_index = first_index
        f = first_index
        super().__init__(
            f"not integrable: trisum({i + f},{j + f},{k + f}) = {format_poly(poly, f)}"
        )


class DegreeOverflowError(ValueError):
    """A transformed structure left the degree-<=2 class."""


class PoissonStructure:
    """A bivector together with a certificate that it satisfies Jacobi.

    Only ``verify`` constructs these; ``verified`` is always True on a live
    instance and the bracket refuses to run otherwise.
    """

    __slots__ = ("n", "bivector", "verified", "first_index", "_omega")

    def __init__(self, bivector: MultiDerivation, _token: object = None, first_index: int = 1) -> None:
        if _token is not _VERIFIED_TOKEN:
            raise ValueError("use verify() to build a PoissonStructure")
        self.n = bivector.n
        self.bivector = bivector
        self.verified = True
        self.first_index = first_index
        self._omega: Optional[ExteriorForm] = None

    def entry(self, i: int, j: int) -> Polynomial:
        return bivector_entry(self.bivector, i, j)

    def omega(self) -> ExteriorForm:
        """The (n-2)-form of the bivector, cached."""
        if self._omega is None:
            self._omega = phi_map(self.bivector)
        return self._omega

    def bracket(self, p: Polynomial, q: Polynomial) -> Polynomial:
        """{p, q}: antisymmetric, Leibniz in both slots, satisfies Jacobi."""
        if not self.verified:
            raise ValueError("structure is not verified")
        if p.n != self.n or q.n != self.n:
            raise ValueError("argument variable count mismatch")
        total = Polynomial.zero(self.n)
        for (i, j), val in self.bivector.values.items():
            di_p, dj_q = p.partial(i), q.partial(j)
            term = Polynomial.zero(self.n)
            if not (di_p.is_zero or dj_q.is_zero):
                term = di_p * dj_q
            dj_p, di_q = p.partial(j), q.partial(i)
            if not (dj_p.is_zero or di_q.is_zero):
                term = term - dj_p * di_q
            if not term.is_zero:
                total = total + val * term
        return total

    def bracket_coordinate(self, i: int, p: Polynomial) -> Polynomial:
        """{X_i, p}."""
        return bracket_with_coordinate(self.bivector, i, p)

    def entry_degrees(self) -> list[int]:
        degs: set[int] = set()
        for poly in self.bivector.values.values():
            degs.update(poly.homogeneous_degrees())
        return sorted(degs)

    def homogeneous_degree(self) -> int:
        """Common entry degree r; raises if entries are not homogeneous."""
        degs = self.entry_degrees()
        if len(degs) > 1:
            raise ValueError(
                f"structure entries mix degrees {degs}; split by degree first"
            )
        return degs[0] if degs else 1

    def __repr__(self) -> str:
        f = self.first_index
        entries = ", ".join(
            f"P({i + f},{j + f})={format_poly(p, f)}"
            for (i, j), p in sorted(self.bivector.values.items())
        )
        return f"PoissonStructure(n={self.n}, {entries or '0'})"


_VERIFIED_TOKEN = object()


def verify(bivector: MultiDerivation, first_index: int = 1) -> PoissonStructure:
    """Check integrability by both criteria and wrap the bivector.

    Raises IntegrabilityError with the first nonzero trisum witness when the
    bivector is not Poisson, and AssertionError if the two criteria ever
    disagree (which would be an internal bug).
    """
    if bivector.k != 2:
        raise ValueError("a Poisson structure needs a bivector (k = 2)")
    obstructions = jacobi_trisum(bivector)
    trisum_ok = not obstructions
    if bivector.n >= 3:
        forms_ok = integrability_via_forms(bivector)
        if forms_ok != trisum_ok:
            raise AssertionError(
                "internal disagreement between trisum and form criteria: "
                f"trisum={trisum_ok} forms={forms_ok}"
            )
    if not trisum_ok:
        raise IntegrabilityError(obstructions[0], first_index)
    return PoissonStructure(bivector, _VERIFIED_TOKEN, first_index)


# -- graded integrability for degree-<=2 structures on three variables -------


@dataclass(frozen=True)
class GradedIntegrabilityReport:
    """Truth values of the four graded pieces of Omega ^ d(Omega)."""

    quad_quad: bool        # Omega_2 ^ dOmega_2 = 0
    const_lin: bool        # Omega_0 ^ dOmega_1 + Omega_1 ^ dOmega_0 = 0
    mixed: bool            # Omega_0 ^ dOmega_2 + Omega_2 ^ dOmega_0 + Omega_1 ^ dOmega_1 = 0
    lin_quad: bool         # Omega_1 ^ dOmega_2 + Omega_2 ^ dOmega_1 = 0

    @property
    def all_hold(self) -> bool:
        return self.quad_quad and self.const_lin and self.mixed and self.lin_quad

    def as_dict(self) -> dict[str, bool]:
        return {
            "omega2_d_omega2": self.quad_quad,
            "omega0_d_omega1": self.const_lin,
            "omega0_d_omega2_plus_omega1_d_omega1": self.mixed,
            "omega1_d_omega2_plus_omega2_d_omega1": self.lin_quad,
        }


def graded_integrability(bivector: MultiDerivation) -> GradedIntegrabilityReport:
    """Split the integrability of a degree-<=2 bivector on 3 variables.

    The conjunction of the four equations equals the verify() verdict.
    """
    if bivector.k != 2:
        raise ValueError("not a bivector")
    if bivector.n != 3:
        raise ValueError("graded splitting is defined for three variables")
    for poly in bivector.values.values():
        if poly.total_degree() > 2:
            raise ValueError("entries must have degree at most 2")
    omega = phi_map(bivector)
    parts = []
    for d in range(3):
        terms = {
            idx: coeff.homogeneous_component(d)
            for idx, coeff in omega.terms.items()
        }
        parts.append(ExteriorForm(3, omega.k, terms))
    om0, om1, om2 = parts
    d0, d1, d2 = om0.d(), om1.d(), om2.d()
    return GradedIntegrabilityReport(
        quad_quad=om2.wedge(d2).is_zero,
        const_lin=(om0.wedge(d1) + om1.wedge(d0)).is_zero,
        mixed=(om0.wedge(d2) + om2.wedge(d0) + om1.wedge(d1)).is_zero,
        lin_quad=(om1.wedge(d2) + om2.wedge(d1)).is_zero,
    )


# -- order-2 equivalences -----------------------------------------------------


def _matrix_inverse(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """A^-1 from the kernel of [A | -I]: the vector ending at column n + m is
    (column m of A^-1, e_m); a kernel vector ending before column n means A is
    singular."""
    n = len(rows)
    aug = [{**{j: Fraction(x) for j, x in enumerate(row) if x}, n + i: Fraction(-1)}
           for i, row in enumerate(rows)]
    kernel = linalg.kernel_basis(aug, 2 * n)
    if any(max(vec) < n for vec in kernel):
        raise ValueError("linear part is not invertible")
    return [[kernel[m].get(i, Fraction(0)) for m in range(n)] for i in range(n)]


class Order2Equivalence:
    """f(X_i) = sum_j a_i^j X_j + (degree-2 part); identity above degree 1.

    ``linear`` is the matrix (a_i^j); ``quad`` holds one homogeneous degree-2
    polynomial per variable (possibly zero).  The map is a linear bijection of
    the polynomial vector space, not an algebra morphism.
    """

    __slots__ = ("n", "linear", "quad", "_inv_linear")

    def __init__(
        self,
        n: int,
        linear: Sequence[Sequence[Scalar]],
        quad: Optional[Sequence[Polynomial]] = None,
    ) -> None:
        if len(linear) != n or any(len(row) != n for row in linear):
            raise ValueError("linear part must be an n x n matrix")
        self.n = n
        self.linear = tuple(tuple(Fraction(x) for x in row) for row in linear)
        if quad is None:
            quad = [Polynomial.zero(n)] * n
        if len(quad) != n:
            raise ValueError("quadratic part needs one polynomial per variable")
        for q in quad:
            if q.n != n:
                raise ValueError("quadratic part variable count mismatch")
            if not q.is_zero and not q.is_homogeneous(2):
                raise ValueError("quadratic part must be homogeneous of degree 2")
        self.quad = tuple(quad)
        self._inv_linear: Optional[tuple[tuple[Fraction, ...], ...]] = None

    @classmethod
    def identity(cls, n: int) -> "Order2Equivalence":
        return cls(n, [[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    def _inverse_linear(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._inv_linear is None:
            self._inv_linear = tuple(
                tuple(row) for row in _matrix_inverse(self.linear)
            )
        return self._inv_linear

    def image_of_variable(self, i: int) -> Polynomial:
        out = Polynomial(
            self.n,
            {
                tuple(int(a == j) for a in range(self.n)): c
                for j, c in enumerate(self.linear[i])
                if c
            },
        )
        return out + self.quad[i]

    def _split(self, p: Polynomial) -> tuple[Polynomial, list[Fraction]]:
        """Separate the degree-1 component; return (rest, coefficients)."""
        lin = p.homogeneous_component(1)
        coeffs = [Fraction(0)] * self.n
        for exps, c in lin.terms.items():
            coeffs[exps.index(1)] = c
        return p - lin, coeffs

    def apply(self, p: Polynomial) -> Polynomial:
        rest, coeffs = self._split(p)
        out = rest
        for i, c in enumerate(coeffs):
            if c:
                out = out + self.image_of_variable(i) * c
        return out

    def apply_inverse(self, p: Polynomial) -> Polynomial:
        """Blockwise inverse: invert the linear part, then cancel its
        quadratic shadow; untouched on constants and degrees >= 2."""
        rest, coeffs = self._split(p)
        inv = self._inverse_linear()
        new_coeffs = [
            sum((inv[j][i] * coeffs[j] for j in range(self.n)), Fraction(0))
            for i in range(self.n)
        ]
        out = rest
        for i, c in enumerate(new_coeffs):
            if c:
                out = out + Polynomial.variable(self.n, i) * c - self.quad[i] * c
        return out

    def inverse(self) -> "Order2Equivalence":
        inv = self._inverse_linear()
        quad = []
        for i in range(self.n):
            q = Polynomial.zero(self.n)
            for j in range(self.n):
                if inv[i][j]:
                    q = q + self.quad[j] * inv[i][j]
            quad.append(-q)
        return Order2Equivalence(self.n, inv, quad)

    def compose(self, other: "Order2Equivalence") -> "Order2Equivalence":
        """The equivalence p -> self.apply(other.apply(p))."""
        if self.n != other.n:
            raise ValueError("mismatched variable count")
        linear = []
        quad = []
        for i in range(self.n):
            image = self.apply(other.image_of_variable(i))
            lin = image.homogeneous_component(1)
            row = [Fraction(0)] * self.n
            for exps, c in lin.terms.items():
                row[exps.index(1)] = c
            linear.append(row)
            quad.append(image.homogeneous_component(2))
        return Order2Equivalence(self.n, linear, quad)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Order2Equivalence)
            and self.n == other.n
            and self.linear == other.linear
            and self.quad == other.quad
        )

    def __hash__(self) -> int:
        return hash((self.n, self.linear, self.quad))


def apply_equivalence(structure: PoissonStructure, f: Order2Equivalence) -> PoissonStructure:
    """Transport a degree-<=2 structure along an order-2 equivalence.

    Entries of the result are f^{-1}({f(X_i), f(X_j)}); raises
    DegreeOverflowError when they leave the degree-<=2 class, and re-verifies
    integrability of the result.
    """
    n = structure.n
    if f.n != n:
        raise ValueError("mismatched variable count")
    if any(p.total_degree() > 2 for p in structure.bivector.values.values()):
        raise ValueError("entries must have degree at most 2")
    images = [f.apply(Polynomial.variable(n, i)) for i in range(n)]
    entries: dict[tuple[int, int], Polynomial] = {}
    for i in range(n):
        for j in range(i + 1, n):
            b = structure.bracket(images[i], images[j])
            p = f.apply_inverse(b)
            if p.total_degree() > 2:
                raise DegreeOverflowError(
                    f"transformed entry P({i + structure.first_index},"
                    f"{j + structure.first_index}) has degree {p.total_degree()}"
                )
            entries[(i, j)] = p
    return verify(bivector_from_entries(n, entries), structure.first_index)
