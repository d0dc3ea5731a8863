"""The read-only value records: slices, coboundary matrices, table rows,
graded integrability reports and catalog entries."""

from types import MappingProxyType

import pytest

from polypoisson.catalog import CATALOG, CatalogEntry, ParamSpec, catalog_get
from polypoisson.cohomology import (
    CohomologyRow,
    GradedSlice,
    cohomology_dims,
    delta_matrix,
    slice_basis,
)
from polypoisson.poisson import GradedIntegrabilityReport, graded_integrability

SLICE_FIELDS = ("n", "k", "d", "weights", "exclude_value_vars", "exclude_slot_vars", "basis")


def _records():
    S = catalog_get("P1")
    source = slice_basis(3, 1, 1)
    return [
        (source, SLICE_FIELDS),
        (delta_matrix(S, source), ("source", "target", "denom", "columns")),
        (cohomology_dims(S, [1], [1]).row(1, 1), ("k", "d", "dim_chi", "dim_Z", "dim_B")),
        (graded_integrability(S.bivector), ("quad_quad", "const_lin", "mixed", "lin_quad")),
        (CATALOG["P1"], ("name", "description", "source", "params", "build", "first_index",
                         "expected", "expect_integrable", "notes")),
        (ParamSpec("a", "a != 0"), ("name", "constraint", "admissible", "integer")),
    ]


def test_every_field_of_every_record_refuses_assignment_and_deletion():
    for record, fields in _records():
        for name in fields:
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is value
        assert not hasattr(record, "__dict__")


def test_slice_fields_are_the_names_the_tracer_reads():
    # bench/tracer.py keys each slice by these fields, in this order
    assert GradedSlice._fields == SLICE_FIELDS


def test_slice_is_a_value_of_its_fields():
    s, t = slice_basis(2, 1, 1), slice_basis(2, 1, 1)
    text = (
        "GradedSlice(n=2, k=1, d=1, weights=None, exclude_value_vars=frozenset(), "
        "exclude_slot_vars=frozenset(), basis=(((0,), (0, 1)), ((0,), (1, 0)), "
        "((1,), (0, 1)), ((1,), (1, 0))))"
    )
    assert repr(s) == text
    assert s == t and hash(s) == hash(t) and repr(s) == text
    with pytest.raises(AttributeError):
        s.packed = {}
    with pytest.raises(AttributeError):
        s.extra = 1
    filtered = slice_basis(3, 1, 1, (0, 1, 2), (0,), (0,))
    assert repr(filtered) == (
        "GradedSlice(n=3, k=1, d=1, weights=(0, 1, 2), exclude_value_vars=frozenset({0}), "
        "exclude_slot_vars=frozenset({0}), basis=(((1,), (0, 1, 0)), ((2,), (0, 0, 1))))"
    )
    assert s != slice_basis(2, 1, 2)


def _check_read_only(value):
    if isinstance(value, MappingProxyType):
        for item in value.values():
            _check_read_only(item)
    else:
        assert not isinstance(value, (list, dict))
        if isinstance(value, tuple):
            for item in value:
                _check_read_only(item)


def test_catalog_entry_built_directly_holds_a_read_only_record():
    published = {"H_totals": {0: 1, 1: [2, {"d": [3]}]}, "forms": ["X1*dX1"]}
    by_keyword = CatalogEntry(name="t", description="", source="", params=(),
                              build=lambda p: None, expected=published)
    by_position = CatalogEntry("t", "", "", (), lambda p: None, 1, published)
    for entry in (by_keyword, by_position, by_keyword._replace(expected=published),
                  CatalogEntry._make(by_position)):
        assert isinstance(entry, CatalogEntry)
        assert isinstance(entry.expected, MappingProxyType)
        _check_read_only(entry.expected)
        assert entry.expected["H_totals"][1] == (2, {"d": (3,)})
    assert published == {"H_totals": {0: 1, 1: [2, {"d": [3]}]}, "forms": ["X1*dX1"]}
    assert CatalogEntry("t", "", "", (), lambda p: None).expected is None


def test_report_records_keep_their_dicts_and_verdicts():
    row = CohomologyRow(1, 2, 10, 6, 4)
    assert row.dim_H == 2
    assert row.as_dict() == {"k": 1, "d": 2, "dim_chi": 10, "dim_Z": 6, "dim_B": 4, "dim_H": 2}
    report = GradedIntegrabilityReport(True, False, True, True)
    assert report.as_dict() == {
        "omega2_d_omega2": True,
        "omega0_d_omega1": False,
        "omega0_d_omega2_plus_omega1_d_omega1": True,
        "omega1_d_omega2_plus_omega2_d_omega1": True,
    }
    assert not report.all_hold
    assert GradedIntegrabilityReport(True, True, True, True).all_hold
