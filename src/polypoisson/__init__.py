"""Exact Poisson structures and Lichnerowicz-Poisson cohomology on polynomial rings.

Everything is computed over the rationals with exact arithmetic: sparse
polynomials, exterior forms, skew multiderivations, integrability checks by
two independent routes, and degree-by-degree cohomology via fraction-free
rational linear algebra.
"""

from .poly import ParseError, Polynomial, format_poly, monomial_basis, parse_poly
from .exterior import ExteriorForm, format_form
from .multivector import (
    MultiDerivation,
    bivector_from_entries,
    integrability_via_forms,
    jacobi_trisum,
    phi_inverse,
    phi_map,
)
from .poisson import (
    IntegrabilityError,
    PoissonStructure,
    graded_integrability,
    verify,
)
from .cohomology import (
    CohomologyReport,
    ComplexInvariantError,
    DeltaMatrix,
    GradedSlice,
    cochain_in_coboundaries,
    cocycle_representatives,
    cohomology_dims,
    delta,
    delta_matrix,
    delta_via_forms,
    form_delta_sign,
    normalize_cocycle,
    slice_basis,
)
from .catalog import CatalogEntry, catalog_expected, catalog_get

__all__ = [
    "CatalogEntry",
    "CohomologyReport",
    "ComplexInvariantError",
    "DeltaMatrix",
    "ExteriorForm",
    "GradedSlice",
    "IntegrabilityError",
    "MultiDerivation",
    "ParseError",
    "PoissonStructure",
    "Polynomial",
    "bivector_from_entries",
    "catalog_expected",
    "catalog_get",
    "cochain_in_coboundaries",
    "cocycle_representatives",
    "cohomology_dims",
    "delta",
    "delta_matrix",
    "delta_via_forms",
    "form_delta_sign",
    "format_form",
    "format_poly",
    "graded_integrability",
    "integrability_via_forms",
    "jacobi_trisum",
    "monomial_basis",
    "normalize_cocycle",
    "parse_poly",
    "phi_inverse",
    "phi_map",
    "slice_basis",
    "verify",
]
