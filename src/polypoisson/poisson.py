"""Validated Poisson structures, their bracket, and graded integrability.

``verify`` runs both integrability criteria (the trisum of Jacobi
obstructions and the exterior-form test) and refuses to hand out a
``PoissonStructure`` unless both agree that the bivector is integrable.
Disagreement between the two criteria is a bug in this library, never a
property of the input, and aborts loudly.  The bracket of a verified
structure is {p, q} = sum_i dp/dX_i {X_i, q}, each {X_i, q} = sum_j P_{ij}
dq/dX_j read off ``bracket_coordinate``.

``graded_integrability`` specializes to three variables and entries of
degree at most two: the form of the bivector splits as
Omega_0 + Omega_1 + Omega_2 by coefficient degree, and integrability is the
simultaneous vanishing of the four graded pieces of Omega ^ d(Omega).
Omega_a ^ dOmega_b has coefficient degree a + b - 1, so the pieces are the
homogeneous components of degrees 3, 0, 1 and 2 of the one product
Omega ^ dOmega.  On three variables its coefficient is the one Jacobi
obstruction J_012, so the pieces are read off the trisum; no form is built.
Both functions read the trisum from the integrability pass the bivector
keeps (``multivector._integrability``), so ``graded_integrability`` after
``verify`` on the same bivector scales it and sums the trisum no second time.
"""

from __future__ import annotations

from typing import NamedTuple

from .multivector import (
    MultiDerivation,
    _forms_integrable,
    _integrability,
    bivector_entry,
)
from .poly import Polynomial, format_poly


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


class PoissonStructure:
    """A bivector together with a certificate that it satisfies Jacobi.

    Only ``verify`` constructs these; ``verified`` is always True on a live
    instance and the bracket refuses to run otherwise.
    """

    __slots__ = ("n", "bivector", "verified", "first_index", "_coboundary", "_complexes")

    def __init__(self, bivector: MultiDerivation, _token: object = None, first_index: int = 1) -> None:
        if _token is not _VERIFIED_TOKEN:
            raise ValueError("use verify() to build a PoissonStructure")
        self.n = bivector.n
        self.bivector = bivector
        self.verified = True
        self.first_index = first_index
        # the coboundary's integer tables and slot terms, shared by every slice
        # and filter; only cohomology fills it
        self._coboundary = None
        # filtered coboundary complexes, one per (weights, excluded variables);
        # only cohomology fills it
        self._complexes: dict = {}

    def entry(self, i: int, j: int) -> Polynomial:
        return bivector_entry(self.bivector, i, j)

    def bracket(self, p: Polynomial, q: Polynomial) -> Polynomial:
        """{p, q} = sum_i dp/dX_i {X_i, q}: antisymmetric, Leibniz in both
        slots, satisfies Jacobi."""
        if not self.verified:
            raise ValueError("structure is not verified")
        if p.n != self.n or q.n != self.n:
            raise ValueError("argument variable count mismatch")
        total = Polynomial.zero(self.n)
        for i in range(self.n):
            dp = p.partial(i)
            if not dp.is_zero:
                total = total + dp * self.bracket_coordinate(i, q)
        return total

    def bracket_coordinate(self, i: int, p: Polynomial) -> Polynomial:
        """{X_i, p} = sum_j P_{ij} dp/dX_j."""
        total = Polynomial.zero(self.n)
        for (a, b), val in self.bivector.values.items():
            if a == i:
                dp = p.partial(b)
                if not dp.is_zero:
                    total = total + val * dp
            elif b == i:
                dp = p.partial(a)
                if not dp.is_zero:
                    total = total - val * dp
        return total

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

    The trisum verdict comes from the bivector's kept integrability pass
    (``multivector._integrability``: L, L * P and the obstructions, computed
    on the first call that needs them), and the form route runs afresh on
    the kept L * P at every call, so each verdict is cross-checked.

    Raises IntegrabilityError with the first nonzero trisum witness when the
    bivector is not Poisson, and AssertionError if the two criteria ever
    disagree (which would be an internal bug).
    """
    if bivector.k != 2:
        raise ValueError("a Poisson structure needs a bivector (k = 2)")
    _, multiple, obstructions = _integrability(bivector)
    trisum_ok = not obstructions
    if bivector.n >= 3:
        forms_ok = _forms_integrable(multiple)
        if forms_ok != trisum_ok:
            raise AssertionError(
                "internal disagreement between trisum and form criteria: "
                f"trisum={trisum_ok} forms={forms_ok}"
            )
    if not trisum_ok:
        raise IntegrabilityError(obstructions[0], first_index)
    return PoissonStructure(bivector, _VERIFIED_TOKEN, first_index)


# -- graded integrability for degree-<=2 structures on three variables -------


class GradedIntegrabilityReport(NamedTuple):
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

    Omega_a ^ dOmega_b has coefficient degree a + b - 1, and dOmega_0 = 0, so
    the four pieces are the homogeneous components of degrees 3, 0, 1 and 2
    of the one coefficient of Omega ^ dOmega.  With
    Omega = P_23 dX_1 - P_13 dX_2 + P_12 dX_3 that coefficient is the Jacobi
    obstruction J_012 of the one triple (internal indices 0, 1, 2):
    Omega ^ dOmega = J_012 dX_1 ^ dX_2 ^ dX_3 (``notes/decisions.md``,
    entry 6).  So the degrees are read off the trisum obstructions, which are
    empty exactly when the bivector is integrable; the conjunction of the
    four equations equals the verify() verdict.  The obstructions are those
    of the bivector's kept integrability pass, so after ``verify`` this
    computes no trisum.
    """
    if bivector.k != 2:
        raise ValueError("not a bivector")
    if bivector.n != 3:
        raise ValueError("graded splitting is defined for three variables")
    for poly in bivector.values.values():
        if poly.total_degree() > 2:
            raise ValueError("entries must have degree at most 2")
    # at most one obstruction, that of the triple (0, 1, 2)
    degrees = {sum(e) for *_, poly in _integrability(bivector)[2] for e in poly.terms}
    return GradedIntegrabilityReport(
        quad_quad=3 not in degrees,
        const_lin=0 not in degrees,
        mixed=1 not in degrees,
        lin_quad=2 not in degrees,
    )
