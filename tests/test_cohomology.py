import collections
import functools
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from polypoisson.catalog import catalog_get
from polypoisson import cohomology, linalg
from polypoisson.cohomology import (
    ComplexInvariantError,
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
from polypoisson.exterior import ExteriorForm
from polypoisson.multivector import MultiDerivation, bivector_from_entries, phi_inverse
from polypoisson.poisson import verify
from polypoisson.poly import Polynomial, monomial_basis
from polypoisson.reproduce import CLASSIFIED_ENTRIES, sample_params

from conftest import random_cochain, random_poly
from oracles import (
    evaluate_derivation,
    full_elimination_dims,
    greedy_representatives,
    homogeneous_component,
    insert_first,
    probe_form_delta_sign,
    tuple_keyed_columns,
    two_sum_delta,
    uncleared_boundaries,
    weight,
)


def V(n, i):
    return Polynomial.variable(n, i)


def coordinates(sl, phi):
    """Coordinates of a cochain in the slice; a KeyError for a term outside it."""
    index = {pair: pos for pos, pair in enumerate(sl.basis)}
    return {index[T, e]: c for T, p in phi.values.items() for e, c in p.terms.items()}


def p1():
    return catalog_get("P1")


def zero_structure(n):
    return verify(bivector_from_entries(n, {}))


# -- delta ------------------------------------------------------------------------


def test_delta_on_zero_cochain_of_p1():
    S = p1()
    d0 = delta(S, MultiDerivation(3, 0, {(): V(3, 1)}))
    assert d0.values == {(0,): V(3, 1)}


def test_delta_kills_constants():
    S = p1()
    one = MultiDerivation(3, 0, {(): Polynomial.constant(3, 1)})
    assert delta(S, one).is_zero


def test_delta_of_published_generators_vanishes():
    S = p1()
    phi1 = phi_inverse(ExteriorForm.basis(3, (1,), V(3, 2)))       # X3 dX2
    phi2 = phi_inverse(ExteriorForm.basis(3, (1,), V(3, 1) ** 2))  # X2^2 dX2
    assert delta(S, phi1).is_zero
    assert delta(S, phi2).is_zero


def test_delta_top_arity_is_zero(rng):
    S = p1()
    phi = random_cochain(3, 3, 2, rng)
    assert delta(S, phi).is_zero
    assert delta(S, phi).k == 4


def test_delta_squared_vanishes(rng):
    structures = [
        p1(),
        catalog_get("rigid", {"n": 4}),
        catalog_get("Omega7", {"a": 2, "b": 1}),
        catalog_get("NF39-1"),
    ]
    cases = 0
    for S in structures:
        n = S.n
        for _ in range(30):
            k = rng.randint(0, min(3, n - 1))
            phi = random_cochain(n, k, 3, rng)
            assert delta(S, delta(S, phi)).is_zero
            cases += 1
    assert cases >= 100


def test_delta_matches_the_two_sum_oracle(rng):
    # delta applies the elementary-cochain rule; the oracle evaluates the
    # two-sum formula on coordinate tuples
    P1 = p1()
    structures = [
        P1,
        verify(P1.bivector * Fraction(1, 3)),
        catalog_get("P2", {"n": 5}),
        catalog_get("rigid", {"n": 6}),
        catalog_get("rigid", {"n": 10}),
        catalog_get("deformed-mu", {"n": 8}),
        catalog_get("Omega9", {"a": 1, "b": Fraction(1, 2), "c": -1, "e": 2, "f": 0, "g": 3}),
        catalog_get("Omega11", {"a": 2, "b": -1, "c": Fraction(1, 3)}),
        catalog_get("NF39-1"),
        catalog_get("L3", {"alpha": Fraction(2, 3)}),
    ]
    cases = 0
    for S in structures:
        n = S.n
        for k in range(n + 2):
            # a few slot tuples per cochain keep the oracle fast at n = 11
            density = min(0.5, 4 / math.comb(n, k)) if k <= n else 0.5
            for _ in range(5):
                phi = random_cochain(n, k, 3, rng, density)
                image = delta(S, phi)
                assert image == two_sum_delta(S, phi), (S, phi)
                assert image.k == k + 1
                if k >= n:
                    assert image.is_zero
                cases += 1
    assert cases >= 300
    with pytest.raises(ValueError, match="variable count mismatch"):
        delta(P1, random_cochain(4, 1, 2, rng))


def test_delta_matches_two_sum_on_general_arguments(rng):
    # delta stores values on coordinate tuples; the same two-sum evaluated
    # through the Leibniz extension must agree on arbitrary polynomials
    S = catalog_get("rigid", {"n": 4})
    n = S.n
    for _ in range(10):
        k = rng.randint(1, 2)
        phi = random_cochain(n, k, 2, rng)
        image = delta(S, phi)
        args = [random_poly(n, 1, rng, max_terms=2) for _ in range(k + 1)]
        direct = Polynomial.zero(n)
        for i in range(k + 1):
            rest = args[:i] + args[i + 1 :]
            term = S.bracket(args[i], evaluate_derivation(phi, rest))
            direct = direct + term if i % 2 == 0 else direct - term
        for i, j in itertools.combinations(range(k + 1), 2):
            rest = [args[a] for a in range(k + 1) if a not in (i, j)]
            term = evaluate_derivation(phi, [S.bracket(args[i], args[j])] + rest)
            direct = direct + term if (i + j) % 2 == 0 else direct - term
        assert evaluate_derivation(image, args) == direct


def test_delta_degree_bookkeeping(rng):
    # degree-1 entries preserve value degree; degree-2 entries raise it by one
    quadratic = verify(bivector_from_entries(3, {(0, 1): V(3, 2) ** 2}))
    for S, r in ((catalog_get("P2", {"n": 3}), 1), (quadratic, 2)):
        for _ in range(10):
            k = rng.randint(0, 2)
            d = rng.randint(0, 2)
            phi = random_cochain(S.n, k, 0, rng)
            phi = MultiDerivation(
                S.n,
                k,
                {
                    idx: homogeneous_component(random_poly(S.n, d, rng), d)
                    for idx in phi.values
                },
            )
            image = delta(S, phi)
            for poly in image.values.values():
                assert poly.homogeneous_degrees() == [d + r - 1]


# -- delta via forms ------------------------------------------------------------------


def test_delta_via_forms_matches_delta_on_examples():
    S = p1()
    phi0 = MultiDerivation(3, 0, {(): V(3, 1)})
    assert delta_via_forms(S, phi0) == delta(S, phi0)
    phi2 = phi_inverse(ExteriorForm.basis(3, (1,), V(3, 1) ** 2))
    assert delta_via_forms(S, phi2).is_zero


def test_delta_via_forms_zero_structure(rng):
    S = zero_structure(4)
    phi = random_cochain(4, 2, 2, rng)
    assert delta_via_forms(S, phi).is_zero


def test_delta_via_forms_random(rng):
    # Omega9's entries mix degrees, L3 at alpha = 2/3 has denominators, and
    # rigid n=6 has seven variables
    structures = [
        p1(), catalog_get("P2", {"n": 4}), catalog_get("rigid", {"n": 4}),
        catalog_get("Omega9", sample_params("Omega9", random.Random(9))),
        catalog_get("L3", {"alpha": Fraction(2, 3)}), catalog_get("rigid", {"n": 6}),
    ]
    for S in structures:
        n = S.n
        for k in range(n):
            for _ in range(8):
                phi = random_cochain(n, k, 3, rng)
                assert delta_via_forms(S, phi) == delta(S, phi)


def test_sign_constants_are_stable():
    first = form_delta_sign(3, 1)
    assert form_delta_sign(3, 1) == first
    assert first[0] in (-1, 1) and first[1] in (-1, 1)


def test_sign_rule_matches_the_probe():
    # the closed form against the elementary-cochain probe; n = 8 and 9 (about
    # 30 s) were checked once and are recorded in notes/decisions.md
    for n in range(3, 8):
        for k in range(n):
            assert form_delta_sign(n, k) == probe_form_delta_sign(n, k), (n, k)
    for n, k in ((2, 0), (4, -1), (4, 4)):
        with pytest.raises(ValueError):
            form_delta_sign(n, k)


# -- slices ------------------------------------------------------------------------------


def test_slice_dimensions_unfiltered():
    assert slice_basis(3, 1, 2).dim == 3 * 6
    assert slice_basis(2, 2, 2).dim == 1 * 3
    for n, k, d in ((3, 2, 1), (4, 2, 2), (5, 3, 1)):
        expected = math.comb(n, k) * math.comb(n + d - 1, d)
        assert slice_basis(n, k, d).dim == expected


def test_slice_out_of_range_arity():
    assert slice_basis(3, 4, 2).dim == 0
    assert slice_basis(3, 2, -1).dim == 0


def test_out_of_range_slice_keeps_its_weight_filter():
    sl = slice_basis(3, 4, 1, weights=(0, 1, 2))
    assert sl.dim == 0
    assert sl.weights == (0, 1, 2)


@pytest.mark.parametrize("sl", [
    slice_basis(3, 2, 2),
    slice_basis(4, 2, 3, weights=(0, 1, 2, 3), exclude_value_vars=(0,), exclude_slot_vars=(0,)),
    slice_basis(3, 4, 2),
], ids=["plain", "filtered", "empty"])
def test_packed_index_keys_each_basis_pair_by_its_code(sl):
    widths = [w for w in range(1, 7) if 2**w > sl.d]
    assert widths
    for w in widths:
        index = cohomology._packed_index(sl, w)
        assert list(index.values()) == list(range(sl.dim))
        assert [cohomology._decode(sl.n, w, code) for code in index] == list(sl.basis)


def test_slice_invariant_rigid_example():
    # variables X0..X5 with weights 0..5; degree-2 values, first variable
    # excluded everywhere: the X2 slot admits exactly X1^2
    sl = slice_basis(
        6, 1, 2, weights=(0, 1, 2, 3, 4, 5),
        exclude_value_vars=(0,), exclude_slot_vars=(0,),
    )
    x2_slot = [m for (idx, m) in sl.basis if idx == (2,)]
    assert x2_slot == [(0, 2, 0, 0, 0, 0)]


def test_slice_ordering_is_deterministic():
    a = slice_basis(4, 2, 2)
    b = slice_basis(4, 2, 2)
    assert a.basis == b.basis
    tuples = [idx for idx, _ in a.basis]
    assert tuples == sorted(tuples)


# -- matrices ------------------------------------------------------------------------------


def test_delta_matrix_zero_structure():
    S = zero_structure(3)
    m = delta_matrix(S, slice_basis(3, 1, 2))
    assert all(not col for col in m.columns)
    assert linalg.rank(m.columns) == 0


def test_delta_matrix_p1_constants_are_casimirs():
    S = p1()
    m = delta_matrix(S, slice_basis(3, 0, 0))
    assert linalg.rank(m.columns) == 0


def test_delta_matrix_p2_smallest_case():
    # two variables, {X1,X2} = X2: the degree-2 coboundary matrix was derived
    # by hand: image spanned by X1^2, X1*X2, X2^2, hence rank 3
    S = catalog_get("P2", {"n": 2})
    source = slice_basis(2, 1, 2)
    m = delta_matrix(S, source)
    assert (m.target.dim, m.source.dim) == (3, 6)
    assert linalg.rank(m.columns) == 3
    report = cohomology_dims(S, [2], [2])
    assert report.row(2, 2).dim_H == 0


def test_delta_matrix_rank_p2_three_variables():
    # hand computation: 11 independent linear functionals on the 18 source
    # coefficients, kernel of dimension 7
    S = catalog_get("P2", {"n": 3})
    m = delta_matrix(S, slice_basis(3, 1, 2))
    assert (m.target.dim, m.source.dim) == (18, 18)
    assert linalg.rank(m.columns) == 11
    assert len(m.kernel()) == 7


def test_delta_matrix_filtered_closure_rigid():
    S = catalog_get("rigid", {"n": 5})
    weights = tuple(range(6))
    src = slice_basis(6, 2, 2, weights=weights,
                      exclude_value_vars=(0,), exclude_slot_vars=(0,))
    m = delta_matrix(S, src)  # raises if the image leaves the filtered slice
    assert len(m.columns) == src.dim


def _assembly_cases():
    """(structure, k, d, filter kwargs) for the column-by-column oracle check."""
    cases = []
    P1 = p1()
    cases += [(P1, k, d, {}) for k in range(4) for d in range(7)]
    for n in (3, 4, 5):
        S = catalog_get("P2", {"n": n})
        cases += [(S, k, d, {}) for k in range(n + 1) for d in range(4)]
    for n in (4, 6):
        S = catalog_get("rigid", {"n": n})
        invariant = {
            "weights": tuple(range(n + 1)),
            "exclude_value_vars": (0,),
            "exclude_slot_vars": (0,),
        }
        # the plain rigid n=6 complex is large; its low corner suffices
        ks, ds = (range(n + 2), range(3)) if n == 4 else (range(3), range(2))
        cases += [(S, k, d, {}) for k in ks for d in ds]
        cases += [(S, k, d, invariant) for k in range(n + 2) for d in range(4)]
    third = verify(P1.bivector * Fraction(1, 3))
    cases += [(third, k, d, {}) for k in range(4) for d in range(5)]
    zero = zero_structure(4)
    cases += [(zero, k, d, {}) for k in range(5) for d in range(3)]
    cases.append((P1, 1, -1, {}))  # empty source slice
    return cases


def test_delta_matrix_columns_match_delta_oracle():
    shapes = set()
    for S, k, d, filters in _assembly_cases():
        src = slice_basis(S.n, k, d, **filters)
        tgt = slice_basis(S.n, k + 1, d + S.homogeneous_degree() - 1, **filters)
        m = delta_matrix(S, src, tgt)
        assert len(m.columns) == src.dim
        for p in range(src.dim):
            expected = two_sum_delta(S, src.from_vector({p: 1}))
            column = {pos: Fraction(v, m.denom) for pos, v in m.columns[p].items()}
            assert tgt.from_vector(column) == expected, (S, k, d, p)
            assert all(type(v) is int and v for v in m.columns[p].values())
        if k >= S.n:
            assert all(not col for col in m.columns)
        shapes.add((
            "top" if k == S.n - 1 else "beyond" if k >= S.n else "inner",
            src.dim > 0,
            tgt.dim > 0,
        ))
    # the sweep reaches the edges: target at top arity, k >= n, empty slices
    assert ("top", True, True) in shapes
    assert ("beyond", True, False) in shapes
    assert ("inner", False, True) in shapes
    assert ("inner", True, False) in shapes


def test_delta_matrix_fractional_coefficients():
    # P1 / 3 scales to the integer multiple 3 * (P1 / 3) = P1, so the
    # integer columns agree and only the exact values carry the 1/3
    S = verify(p1().bivector * Fraction(1, 3))
    m = delta_matrix(S, slice_basis(3, 1, 2))
    plain = delta_matrix(p1(), slice_basis(3, 1, 2))
    assert (m.denom, plain.denom) == (3, 1)
    assert m.columns == plain.columns
    assert any(v.denominator == 3 for _, _, v in m.triplets())
    assert m.triplets() == [(row, col, v / 3) for row, col, v in plain.triplets()]


def _same_columns(got, expected):
    # equal entries in the same order: the tuple keys and the codes list the
    # image terms alike
    return [list(col.items()) for col in got] == [list(col.items()) for col in expected]


def test_integer_columns_match_the_tuple_keyed_oracle():
    rigid_invariant = {
        "weights": tuple(range(7)), "exclude_value_vars": (0,), "exclude_slot_vars": (0,),
    }
    cases = [(p1(), {}, range(4), range(7)),
             (catalog_get("P2", {"n": 4}), {}, range(5), range(5)),
             (catalog_get("P2", {"n": 7}), {}, range(3), range(4)),
             (catalog_get("rigid", {"n": 6}), rigid_invariant, range(5), range(5))]
    columns = 0
    for S, filters, ks, ds in cases:
        r = S.homogeneous_degree()
        for k in ks:
            for d in ds:
                source = slice_basis(S.n, k, d, **filters)
                target = slice_basis(S.n, k + 1, d + r - 1, **filters)
                got = delta_matrix(S, source, target).columns
                assert _same_columns(got, tuple_keyed_columns(S, source, target)), (S, k, d)
                columns += len(got)
    assert columns > 3000


def test_integer_columns_are_exact_where_the_target_needs_a_wider_code():
    # a degree-2 structure raises the degree by one, across 2, 4 and 8; a
    # degree-0 one lowers it, so the source needs the wider code.  A code of
    # width w, 2^w = B, is exact up to exponent B - 1; on one degree it first
    # aliases two monomials at degree B + 1, x1^B x3 and x2^(B + 1), which
    # the images of the degree-3 structure reach from 3 and 7.  Each slice
    # gets a fresh structure, so no wider code packed for an earlier slice
    # can stand in for the one it needs.
    quadratic = {(0, 1): V(3, 2) ** 2}
    cubic = {(0, 1): V(3, 1) ** 3 + V(3, 0) ** 2 * V(3, 2)}
    constant = {(0, 1): Polynomial.constant(3, 1), (1, 2): Polynomial.constant(3, 2)}
    for entries, r, degrees in ((quadratic, 2, (1, 3, 7)), (cubic, 3, (1, 3, 7)),
                                (constant, 0, (1, 2, 4, 8))):
        for k in range(3):
            for d in degrees:
                S = verify(bivector_from_entries(3, entries))
                assert S.homogeneous_degree() == r
                source, target = slice_basis(3, k, d), slice_basis(3, k + 1, d + r - 1)
                got = delta_matrix(S, source, target).columns
                assert any(got) and _same_columns(got, tuple_keyed_columns(S, source, target))


def test_delta_matches_two_sum_on_every_classified_entry():
    # the entries mix degrees 0..2; each cochain holds a pure power of degree
    # D, the largest, and gets a fresh structure, so its own width is used
    rng = random.Random(2323)
    cases = 0
    for name in CLASSIFIED_ENTRIES:
        params = sample_params(name, rng)
        for D in (1, 3, 7, 9):
            for k in range(4):
                S = catalog_get(name, params)
                n = S.n
                T = tuple(sorted(rng.sample(range(n), k)))
                power = MultiDerivation(n, k, {T: V(n, rng.randrange(n)) ** D})
                phi = random_cochain(n, k, D, rng) + power
                image = delta(S, phi)
                assert image == two_sum_delta(S, phi), (name, params, phi)
                cases += not image.is_zero
    assert cases >= 200


def _seeding_cases():
    rigid_invariant = {
        "weights": tuple(range(7)), "exclude_value_vars": (0,), "exclude_slot_vars": (0,),
    }
    third = verify(p1().bivector * Fraction(1, 3))
    cases = [(p1(), {}, range(4), range(7)), (third, {}, range(4), range(4)),
             (catalog_get("P2", {"n": 5}), {}, range(4), range(4)),
             (catalog_get("rigid", {"n": 6}), rigid_invariant, range(4), range(4))]
    for S, filters, ks, ds in cases:
        for k in ks:
            for d in ds:
                yield S, delta_matrix(S, slice_basis(S.n, k, d, **filters))


def test_integer_columns_seed_the_same_echelon_and_kernel():
    # the integer columns are denom times the exact ones, and scaling by
    # denom > 0 keeps every primitive integer row
    denoms = set()
    for S, m in _seeding_cases():
        denoms.add(m.denom)
        assert m._fields == ("source", "target", "denom", "columns")
        assert all(type(v) is int for col in m.columns for v in col.values())
        exact = [{pos: Fraction(v, m.denom) for pos, v in col.items()} for col in m.columns]
        assert m.triplets() == sorted(
            (row, col, v) for col, column in enumerate(exact) for row, v in column.items()
        )
        by_int, by_fraction = linalg.SpanTracker(m.columns), linalg.SpanTracker(exact)
        assert by_int._echelon == by_fraction._echelon
        assert dict(by_int._relabel) == dict(by_fraction._relabel)
        assert linalg.rank(m.columns) == by_fraction.rank
        rows = cohomology._transpose(exact, m.target.dim)
        assert m.kernel() == linalg.kernel_basis(rows, m.source.dim)
    assert denoms == {1, 3}


def test_one_integer_table_per_structure(monkeypatch, passes):
    # the coboundary tables read the integer multiple that verify kept on the
    # bivector: one scaling and one trisum per structure in all
    widths = []
    packed = cohomology._packed_tables
    monkeypatch.setattr(cohomology, "_packed_tables",
                        lambda multiple, w: widths.append(w) or packed(multiple, w))
    S = p1()
    for k in range(4):
        for d in range(4):
            assert cohomology_dims(S, [k], [d]).rows
            for rep in cocycle_representatives(S, k, d):
                assert not cochain_in_coboundaries(S, rep, d)
                assert delta(S, rep).is_zero
    phi = delta(S, slice_basis(3, 1, 2).from_vector({4: 1}))
    assert cochain_in_coboundaries(S, phi, 2)
    assert cohomology_dims(S, range(4), range(4), weights=cohomology.diagonal_weights(S)).rows
    assert passes["scaled"] == [S.bivector] and len(passes["summed"]) == 1
    assert S._coboundary.multiple is passes["summed"][0]
    # each width is packed at most once, and a narrower one never after a wider
    assert widths and widths == sorted(set(widths))


def test_delta_matrix_squares_to_zero():
    structures = [
        (p1(), {}),
        (catalog_get("P2", {"n": 4}), {}),
        (catalog_get("rigid", {"n": 6}), {
            "weights": tuple(range(7)), "exclude_value_vars": (0,), "exclude_slot_vars": (0,),
        }),
    ]
    products = 0
    for S, filters in structures:
        r = S.homogeneous_degree()
        for k in range(S.n - 1):
            for d in range(5):
                first = delta_matrix(S, slice_basis(S.n, k, d, **filters))
                second = delta_matrix(S, first.target)
                for col in first.columns:
                    image: dict[int, Fraction] = {}
                    for row, val in col.items():
                        for pos, w in second.columns[row].items():
                            image[pos] = image.get(pos, 0) + val * w
                    assert not any(image.values())
                    products += 1
                assert second.target.d == d + 2 * (r - 1)
    assert products > 1000


def test_delta_matrix_rejects_a_filter_that_is_not_a_subcomplex():
    S = catalog_get("P2", {"n": 4})
    src = slice_basis(4, 1, 1, weights=(1, 0, 0, 0))
    with pytest.raises(ValueError, match="^coboundary left the filtered slice"):
        delta_matrix(S, src)


FILTER_GOLDEN = Path(__file__).parent / "golden" / "delta_matrix_filters.txt"


def filter_outcomes() -> list[str]:
    """One line per seeded filter and nonempty (k, d) source: "ok" or the error.

    Weights are drawn from -2..2, and each variable is banned from the values
    and, independently, from the slots with probability 1/5; five filters
    each on P1, P2 n = 4, 5 and rigid n = 5, 6, at d <= 3.
    """
    rng = random.Random(23)
    lines = []
    for name, n in (("P1", None), ("P2", 4), ("P2", 5), ("rigid", 5), ("rigid", 6)):
        S = catalog_get(name, None if n is None else {"n": n})
        for _ in range(5):
            weights = tuple(rng.randint(-2, 2) for _ in range(S.n))
            values = tuple(i for i in range(S.n) if rng.random() < 0.2)
            slots = tuple(i for i in range(S.n) if rng.random() < 0.2)
            for k in range(S.n):
                for d in range(4):
                    source = slice_basis(S.n, k, d, weights, values, slots)
                    if not source.dim:
                        continue
                    try:
                        delta_matrix(S, source)
                        outcome = "ok"
                    except ValueError as err:
                        outcome = str(err)
                    lines.append(f"{name}{'' if n is None else f' n={n}'} w={weights} "
                                 f"values={values} slots={slots} k={k} d={d}: {outcome}")
    return lines


def test_delta_matrix_filter_messages_match_golden():
    # recorded while delta_matrix keyed its images by (slot tuple, exponents);
    # each rejection names the first outside term in the same term order
    lines = filter_outcomes()
    assert "\n".join(lines) + "\n" == FILTER_GOLDEN.read_text(encoding="utf-8")
    assert sum(line.endswith(": ok") for line in lines) >= 50
    assert sum("lies outside the slice" in line for line in lines) >= 100


def test_invariant_weight_constraint_on_kernel():
    # every invariant 2-cocycle value has the weight of its slot pair, and
    # the (X1, Xn) slot weight is n + 1
    n = 7
    S = catalog_get("rigid", {"n": n})
    weights = tuple(range(n + 1))
    src = slice_basis(n + 1, 2, 1, weights=weights,
                      exclude_value_vars=(0,), exclude_slot_vars=(0,))
    matrix = delta_matrix(S, src)
    for vec in matrix.kernel():
        phi = src.from_vector(vec)
        for (i, j), poly in phi.values.items():
            assert weight(poly, weights) == i + j
        slot = phi.values.get((1, n))
        if slot is not None:
            assert weight(slot, weights) == n + 1


# -- reports ----------------------------------------------------------------------------------


def test_cohomology_zero_structure_everything_survives():
    S = zero_structure(2)
    report = cohomology_dims(S, [1], [1])
    row = report.row(1, 1)
    assert row.dim_chi == row.dim_Z == row.dim_H == 4
    assert row.dim_B == 0


def test_p1_profile_hand_values():
    # hand-derived degree-by-degree profile for the three-variable example
    S = p1()
    report = cohomology_dims(S, range(0, 4), range(0, 3))
    assert report.row(0, 0).as_dict() == {
        "k": 0, "d": 0, "dim_chi": 1, "dim_Z": 1, "dim_B": 0, "dim_H": 1
    }
    assert report.row(1, 1).dim_Z == 4  # derivations of the linear structure
    assert report.row(1, 1).dim_B == 3
    assert report.row(1, 2).dim_Z == 7
    assert report.row(1, 2).dim_B == 6
    assert report.row(2, 1).dim_H == 1
    assert report.row(2, 2).dim_H == 1
    assert report.row(3, 2).dim_H == 0


def test_p1_invariant_profile_matches_plain_totals():
    S = p1()
    ks, ds = range(0, 4), range(0, 5)
    plain = cohomology_dims(S, ks, ds)
    invariant = cohomology_dims(S, ks, ds, weights=(0, 1, 2))
    for k in ks:
        assert plain.total(k) == invariant.total(k)


def test_rank_beyond_the_slice_dimension_raises(monkeypatch):
    # an outgoing rank above dim chi would give a negative dim Z
    def too_large(cache, k, d):
        return cache.dim(k, d) + 1

    monkeypatch.setattr(cohomology._SliceCache, "outgoing_rank", too_large)
    with pytest.raises(ComplexInvariantError, match="rank-nullity"):
        cohomology_dims(p1(), [1], [1])


def test_coboundaries_exceeding_cocycles_raise(monkeypatch):
    # full rank everywhere: dim B of (1, 0) is dim chi of (0, 0) = 1, dim Z is 0
    def full(cache, k, d):
        return cache.dim(k, d)

    monkeypatch.setattr(cohomology._SliceCache, "outgoing_rank", full)
    with pytest.raises(ComplexInvariantError, match="coboundaries exceed cocycles"):
        cohomology_dims(p1(), [1], [0])


def test_report_serialization():
    S = catalog_get("P2", {"n": 2})
    report = cohomology_dims(S, [1, 2], [2])
    rows = report.to_json_rows()
    assert all(set(r) == {"k", "d", "dim_chi", "dim_Z", "dim_B", "dim_H"} for r in rows)
    text = report.to_text()
    assert "totals over d" in text


# -- weight blocks ------------------------------------------------------------------------------


def _weight(weights, T, exps):
    """Weight of the elementary cochain x^exps on the slots T."""
    return sum(a * w for a, w in zip(exps, weights)) - sum(weights[t] for t in T)


def _diagonal_structures():
    """(structure, m, w) with {X_m, X_i} = w_i X_i, for the homotopy checks."""
    return [
        (p1(), 0, (0, 1, 2)),
        (catalog_get("P2", {"n": 4}), 0, (0, 1, 2, 3)),
        (catalog_get("rigid", {"n": 5}), 0, (0, 1, 2, 3, 4, 5)),
    ]


def test_diagonal_weights_detection():
    for S, _, w in _diagonal_structures():
        assert cohomology.diagonal_weights(S) == w
    third = verify(catalog_get("P2", {"n": 4}).bivector * Fraction(1, 3))
    assert cohomology.diagonal_weights(third) == (0, 1, 2, 3)
    assert cohomology.diagonal_weights(catalog_get("L2")) == (0, 1, -1)
    # the catalog families bracket {X_0, X_i} = i X_i, in internal indices
    families = [("P1", {}, (0, 1, 2))]
    families += [("P2", {"n": n}, tuple(range(n))) for n in range(2, 9)]
    families += [(name, {"n": n}, tuple(range(n + 1)))
                 for name, ns in (("rigid", range(3, 11)), ("deformed-mu", (7, 8)))
                 for n in ns]
    for name, params, w in families:
        assert cohomology.diagonal_weights(catalog_get(name, params)) == w
    for S in (catalog_get("L1"), catalog_get("L4"), zero_structure(3)):
        assert cohomology.diagonal_weights(S) is None


def test_weight_block_tables_match_full_elimination():
    cases = [(p1(), range(4), range(7))]
    cases += [(catalog_get("P2", {"n": n}), range(n + 1), range(4)) for n in range(3, 7)]
    cases += [(catalog_get("rigid", {"n": n}), range(4), range(3)) for n in (4, 5, 6)]
    cases.append((verify(catalog_get("P2", {"n": 4}).bivector * Fraction(1, 3)),
                   range(5), range(4)))  # fractional weights
    cases.append((catalog_get("L2"), range(4), range(5)))  # a negative weight
    cases.append((catalog_get("L3", {"alpha": 0}), range(4), range(5)))  # w_2 = 0
    for S, ks, ds in cases:
        assert cohomology.diagonal_weights(S) is not None
        assert cohomology_dims(S, ks, ds).rows == full_elimination_dims(S, ks, ds).rows


def test_tables_without_a_diagonal_coordinate_match_full_elimination():
    cases = [
        (catalog_get("L1"), range(4), range(5)),
        (catalog_get("L4"), range(4), range(5)),
        (verify(bivector_from_entries(3, {(0, 1): V(3, 2) ** 2})), range(4), range(4)),
        (zero_structure(3), range(5), range(3)),
    ]
    for S, ks, ds in cases:
        assert cohomology.diagonal_weights(S) is None
        assert cohomology_dims(S, ks, ds).rows == full_elimination_dims(S, ks, ds).rows


def test_filtered_tables_match_full_elimination():
    # weights= or exclude_vars= from the caller: the block is the filtered slice
    S = catalog_get("rigid", {"n": 5})
    weights = tuple(range(6))
    for filters in ({"weights": weights, "exclude_vars": (0,)}, {"weights": weights}):
        assert (cohomology_dims(S, range(7), range(4), **filters).rows
                == full_elimination_dims(S, range(7), range(4), **filters).rows)


def test_insertion_is_a_homotopy_to_the_weight():
    # delta(i phi) + i(delta phi) = weight(phi) phi on every elementary cochain
    cases = 0
    for S, m, w in _diagonal_structures():
        for k in range(S.n + 1):
            for d in range(3):
                sl = slice_basis(S.n, k, d)
                for pos, (T, exps) in enumerate(sl.basis):
                    phi = sl.from_vector({pos: 1})
                    lhs = insert_first(delta(S, phi), m)
                    if k:
                        lhs = lhs + delta(S, insert_first(phi, m))
                    assert lhs == phi * _weight(w, T, exps)
                    cases += 1
    assert cases > 2000


def test_cocycles_of_nonzero_weight_are_coboundaries_of_their_insertion():
    checked = 0
    for S, m, w in _diagonal_structures():
        for k in range(1, S.n):
            for d in range(3):
                whole = slice_basis(S.n, k, d)
                by_weight = {}
                for T, exps in whole.basis:
                    by_weight.setdefault(_weight(w, T, exps), []).append((T, exps))
                target = slice_basis(S.n, k + 1, d)
                for lam, basis in by_weight.items():
                    if lam == 0:
                        continue
                    block = cohomology.GradedSlice(
                        S.n, k, d, None, frozenset(), frozenset(), tuple(basis)
                    )
                    for vec in delta_matrix(S, block, target).kernel():
                        c = block.from_vector(vec)
                        assert c == delta(S, insert_first(c, m)) * Fraction(1, lam)
                        checked += 1
    assert checked > 100


def test_counted_dims_match_the_basis():
    for n in range(1, 7):
        cache = cohomology._complex(zero_structure(n), None, ())
        filtered = cohomology._complex(zero_structure(n), tuple(range(n)), (0,))
        for k in range(n + 2):
            for d in range(-1, 5):
                plain = slice_basis(n, k, d).dim
                assert cache.dim(k, d) == plain
                if 0 <= k <= n and d >= 0:
                    assert plain == math.comb(n, k) * math.comb(n + d - 1, d)
                invariant = slice_basis(n, k, d, tuple(range(n)), (0,), (0,)).dim
                assert filtered.dim(k, d) == invariant


def test_counts_match_the_built_slices():
    # one table per degree sizes the slice the caller filtered and its
    # weight-0 block; seeded query order, since the table is kept per degree
    rng = random.Random(33)
    rigid = tuple(range(7))
    complexes = [("P1", None, None, ()), ("P2", {"n": 4}, None, ()),
                 ("rigid", {"n": 6}, None, ()), ("rigid", {"n": 6}, rigid, (0,)),
                 ("L2", None, None, ()), ("L3", {"alpha": 0}, None, ())]
    for name, params, weights, banned in complexes:
        cache = cohomology._complex(catalog_get(name, params), weights, banned)
        n = cache.S.n
        queries = [(k, d) for k in range(n + 2) for d in range(-1, 7)]
        rng.shuffle(queries)
        for k, d in queries:
            built = slice_basis(n, k, d, weights, banned, banned).dim, cache.block(k, d).dim
            assert (cache.dim(k, d), cache.block_dim(k, d)) == built, (name, k, d)
        assert all(len(cache.counts(d)) == n + 1 for d in range(-1, 7))


def test_complex_blocks_equal_slice_basis():
    # a complex groups each degree's monomials by weight once and builds every
    # block of that degree from them; each block is the slice_basis slice
    structures = [(catalog_get("P1"), None, ()), (catalog_get("P2", {"n": 5}), None, ()),
                  (catalog_get("rigid", {"n": 6}), tuple(range(7)), (0,)),
                  (zero_structure(3), None, (1,))]
    for S, weights, banned in structures:
        cache = cohomology._complex(S, weights, banned)
        for d in range(-1, 4):
            for k in range(-1, S.n + 2):
                block = cache.block(k, d)
                fresh = slice_basis(S.n, k, d, cache.block_weights, banned, banned)
                assert block == fresh and block.basis == fresh.basis
                assert repr(block) == repr(fresh)
        assert sorted(cache._monomials) == list(range(-1, 4))


@pytest.mark.parametrize("bad", [3, 7, -1, -3])
def test_excluded_variables_out_of_range_raise(bad):
    # a negative index must not wrap around and ban the last variable
    with pytest.raises(ValueError, match=f"excluded variable index {bad} out of range 0..2"):
        monomial_basis(3, 2, exclude_vars=(bad,))
    for k in (0, 2, 4):
        for d in (-1, 2):
            with pytest.raises(ValueError, match=f"index {bad} "):
                slice_basis(3, k, d, exclude_value_vars=(bad,))
            with pytest.raises(ValueError, match=f"index {bad} "):
                slice_basis(3, k, d, exclude_slot_vars=(0, bad))
    with pytest.raises(ValueError, match=f"index {bad} "):
        cohomology_dims(p1(), [1], [1], exclude_vars=(bad,))


@pytest.mark.parametrize("weights", [(0, 1), (0, 1, 2, 99)], ids=["short", "long"])
def test_weights_of_the_wrong_length_raise(weights):
    # a long vector must not be cut to n entries, nor a short one index past its end
    message = f"weight vector has {len(weights)} entries, expected n=3"
    for k in (0, 2, 4):
        for d in (-1, 2):
            with pytest.raises(ValueError, match=message):
                slice_basis(3, k, d, weights)
    S = p1()
    phi = cocycle_representatives(S, 2, 1)[0]
    with pytest.raises(ValueError, match=message):
        cohomology_dims(S, [1], [1], weights=weights)
    with pytest.raises(ValueError, match=message):
        cocycle_representatives(S, 1, 1, weights=weights)
    # a zero cochain is checked as a nonzero one is, with or without its degree
    zero = MultiDerivation.zero(3, 1)
    for cochain, d in ((phi, 1), (zero, 1), (zero, None)):
        with pytest.raises(ValueError, match=message):
            cochain_in_coboundaries(S, cochain, d=d, weights=weights)
    assert list(S._complexes) == [(None, frozenset())]


def test_slices_match_a_filtered_enumeration():
    # one path for every filter: weights=None is the zero weight
    rng = random.Random(21)
    for _ in range(150):
        n = rng.randint(1, 6)
        weights = rng.choice([None, tuple(rng.randint(-2, 3) for _ in range(n))])
        w = weights or (0,) * n
        value_banned = set(rng.sample(range(n), rng.randint(0, n - 1)))
        slot_banned = set(rng.sample(range(n), rng.randint(0, n)))
        slots = [i for i in range(n) if i not in slot_banned]
        for d in range(-1, 4):
            monos = monomial_basis(n, d, exclude_vars=value_banned)
            for k in range(n + 1):
                sl = slice_basis(n, k, d, weights, value_banned, slot_banned)
                expected = tuple(
                    (T, e) for T in itertools.combinations(slots, k) for e in monos
                    if sum(a * b for a, b in zip(e, w)) == sum(w[t] for t in T)
                )
                assert sl.basis == expected
                assert sl.weights == weights


# a table, a representatives query and a membership test each read the
# counts of their degree before they use a weight block
COUNT_READERS = [
    lambda S, d: cohomology_dims(S, [1], [d]),
    lambda S, d: cocycle_representatives(S, 1, d),
    lambda S, d: cochain_in_coboundaries(S, slice_basis(S.n, 1, d).from_vector({0: 1}), d),
]


def test_weight_block_rank_out_of_range_raises(monkeypatch):
    # a second empty slot tuple counts the block of (0, 0) as two cochains
    # in a slice of one, which leaves a negative rank for the other weights
    weight_counts = cohomology._weight_counts

    def two_empty_tuples(weights, size):
        counts = weight_counts(weights, size)
        counts[0][0] += 1
        return counts

    monkeypatch.setattr(cohomology, "_weight_counts", two_empty_tuples)
    for query in COUNT_READERS:
        with pytest.raises(ComplexInvariantError, match="weight blocks fail at k=0, d=0"):
            query(p1(), 0)


def test_weight_blocks_that_do_not_close_raise(monkeypatch):
    # without the slot tuple of arity n in the count, the block cochain
    # X1 X2 on all three slots of P1 moves to the blocks of weight != 0 at
    # d = 2 and breaks their Euler characteristic; every R stays in range
    weight_counts = cohomology._weight_counts

    def no_top_tuple(weights, size):
        counts = weight_counts(weights, size)
        counts[size].clear()
        return counts

    monkeypatch.setattr(cohomology, "_weight_counts", no_top_tuple)
    for query in COUNT_READERS:
        with pytest.raises(ComplexInvariantError, match="do not close at d=2: rank 1 left over"):
            query(p1(), 2)


# -- representatives ---------------------------------------------------------------------------


def test_p1_representatives_match_published_generators():
    S = p1()
    reps1 = cocycle_representatives(S, 2, 1)
    reps2 = cocycle_representatives(S, 2, 2)
    assert len(reps1) == 1 and len(reps2) == 1
    phi1 = phi_inverse(ExteriorForm.basis(3, (1,), V(3, 2)))
    phi2 = phi_inverse(ExteriorForm.basis(3, (1,), V(3, 1) ** 2))
    for phi, d in ((phi1, 1), (phi2, 2)):
        assert delta(S, phi).is_zero
        assert not cochain_in_coboundaries(S, phi, d=d)
    # a representative is fixed only up to a nonzero scalar and a coboundary,
    # so each published generator must lie in span(B + {rep}), not in rep + B.
    # With theta_ij the slot pair (Xi, Xj): at d=1, rep = X2*theta_12 and
    # phi1 = -X3*theta_13, so rep - 2*phi1 = X2*theta_12 + 2*X3*theta_13 is P1
    # itself, a linear bivector and so a coboundary (of the Euler field), while
    # rep - phi1 is not one.  At d=2, rep = X2^2*theta_13 = -phi2.
    for rep, phi, d in ((reps1[0], phi1, 1), (reps2[0], phi2, 2)):
        assert not cochain_in_coboundaries(S, rep, d=d)
        target = slice_basis(3, 2, d)
        incoming = delta_matrix(S, slice_basis(3, 1, d), target)
        spanned = list(incoming.columns) + [coordinates(target, rep)]
        assert linalg.in_span(spanned, coordinates(target, phi))


def test_zero_structure_representatives_are_whole_slice():
    S = zero_structure(2)
    reps = cocycle_representatives(S, 1, 1)
    assert len(reps) == 4


def test_representatives_are_cocycles_with_independent_classes(rng):
    S = catalog_get("P2", {"n": 3})
    reps = cocycle_representatives(S, 2, 2)
    for rep in reps:
        assert delta(S, rep).is_zero
        assert not cochain_in_coboundaries(S, rep, d=2)
    assert len(reps) == cohomology_dims(S, [2], [2]).row(2, 2).dim_H


def test_representatives_match_the_full_greedy_loop():
    # the block loop and its early exit must pick what the whole-slice loop
    # picks; P1 has dim H <= 1 on these slices, P2 n=4 up to 4
    third = verify(catalog_get("P2", {"n": 4}).bivector * Fraction(1, 3))
    cases = [
        (p1(), range(4), range(13)),
        (catalog_get("P2", {"n": 4}), range(4), range(4)),
        (catalog_get("rigid", {"n": 6}), range(4), range(3)),
        (catalog_get("rigid", {"n": 7}), [2], range(3)),
        (third, range(5), range(4)),  # fractional weights
        (catalog_get("L2"), range(4), range(5)),  # a negative weight
        (catalog_get("L3", {"alpha": 0}), range(4), range(5)),  # w_2 = 0
    ]
    for S, ks, ds in cases:
        for k in ks:
            for d in ds:
                assert cocycle_representatives(S, k, d) == greedy_representatives(S, k, d)
    rigid = catalog_get("rigid", {"n": 6})
    weights = tuple(range(7))
    for d in range(4):
        got = cocycle_representatives(rigid, 2, d, weights, (0,))
        assert got == greedy_representatives(rigid, 2, d, weights, (0,))


def test_no_kernel_is_built_for_a_slice_without_classes(monkeypatch):
    empty = [r for r in cohomology_dims(p1(), range(4), range(13)).rows if not r.dim_H]
    assert len(empty) == 46

    def refuse(rows, ncols):
        raise AssertionError("kernel built for a slice with dim H = 0")

    monkeypatch.setattr(linalg, "kernel_basis", refuse)
    S = p1()
    for r in empty:
        assert cocycle_representatives(S, r.k, r.d) == []


def test_each_block_matrix_is_assembled_once_per_session(monkeypatch):
    # one echelon per coboundary edge serves the outgoing rank, dim B and the
    # membership test, and assembles once the source cochains that clearing
    # keeps, if any; only a representatives query assembles the outgoing
    # matrix of a slice with classes once more, for its kernel
    assembled = collections.Counter()
    assemble = cohomology.delta_matrix

    def counted(S, source, target=None):
        matrix = assemble(S, source, target)
        assembled[(source.k, source.d), (matrix.target.k, matrix.target.d)] += 1
        return matrix

    monkeypatch.setattr(cohomology, "delta_matrix", counted)
    S = p1()
    table = cohomology_dims(S, range(4), range(13))
    reps = {(k, d): cocycle_representatives(S, k, d) for k in range(4) for d in range(13)}
    for (k, d), found in reps.items():
        for phi in found:
            assert not cochain_in_coboundaries(S, phi, d=d)
        if k:
            source = slice_basis(S.n, k - 1, d)
            for position in range(min(source.dim, 3)):
                boundary = delta(S, source.from_vector({position: 1}))
                assert cochain_in_coboundaries(S, boundary, d=d)
    with_classes = {(r.k, r.d) for r in table.rows if r.dim_H and r.k < S.n}
    edges = {((k - 1, d), (k, d)) for k in range(1, 4) for d in range(13)}
    assert with_classes and set(assembled) <= edges
    cache = cohomology._complex(S, None, ())
    for source, target in edges:
        kept = cache.block_dim(*source) - cache.boundaries(*source).rank
        assert assembled[source, target] == (kept > 0) + (source in with_classes), source


def test_boundaries_beyond_the_cocycles_raise(monkeypatch):
    # a kernel one vector short of Z (or one beyond it) leaves a count of
    # classes that disagrees with the table's dim H; the boundary echelon
    # also gives the table its ranks, so the fake goes into the kernel
    kernel = cohomology.DeltaMatrix.kernel
    for change in (lambda vectors: vectors[1:], lambda vectors: vectors + [{0: Fraction(1)}]):
        monkeypatch.setattr(cohomology.DeltaMatrix, "kernel",
                            lambda matrix: change(kernel(matrix)))
        with pytest.raises(ComplexInvariantError, match="but dim H is 1"):
            cocycle_representatives(p1(), 1, 1)


# -- membership ----------------------------------------------------------------------------------


def test_membership_matches_the_whole_slice_span():
    # on-block parts (random or coboundaries) plus off-block parts
    # (coboundaries or random, so mostly not cocycles)
    rng = random.Random(2025)
    verdicts = set()
    for S in (p1(), catalog_get("P2", {"n": 4}), catalog_get("rigid", {"n": 6})):
        w = cohomology.diagonal_weights(S)
        assert S.homogeneous_degree() == 1

        def pick(sl, on_block):
            positions = [p for p, (T, e) in enumerate(sl.basis)
                         if (_weight(w, T, e) == 0) == on_block]
            chosen = rng.sample(positions, min(2, len(positions)))
            return sl.from_vector({p: Fraction(rng.choice([-2, -1, 1, 3])) for p in chosen})

        for k in range(1, 4):
            for d in range(4):
                whole, source = slice_basis(S.n, k, d), slice_basis(S.n, k - 1, d)
                incoming = delta_matrix(S, source, whole).columns
                for _ in range(3):
                    on = rng.choice([pick(whole, True), delta(S, pick(source, True))])
                    off = rng.choice([delta(S, pick(source, False)), pick(whole, False)])
                    phi = on + off
                    got = cochain_in_coboundaries(S, phi, d)
                    assert got == linalg.in_span(incoming, coordinates(whole, phi))
                    verdicts.add(got)
    assert verdicts == {True, False}


def test_membership_rejects_cochains_outside_the_slice():
    S = p1()
    for phi in (MultiDerivation(4, 1, {(0,): V(4, 1)}), MultiDerivation.zero(5, 1)):
        with pytest.raises(ValueError, match="cochain does not match the slice shape"):
            cochain_in_coboundaries(S, phi)
    # the assembly checks the shape of an empty source as of any other
    for source in (slice_basis(5, 1, 1), slice_basis(5, 1, -1)):
        with pytest.raises(ValueError, match="variable count mismatch"):
            delta_matrix(S, source)
    # a target of the wrong arity or degree; P1 is linear, so the degree stays
    for source, target in ((slice_basis(3, 1, 1), slice_basis(3, 3, 1)),
                           (slice_basis(3, 1, -1), slice_basis(3, 3, 1)),
                           (slice_basis(3, 0, 0), slice_basis(3, 1, 5)),
                           (slice_basis(3, 1, 2), slice_basis(3, 2, 3))):
        with pytest.raises(ValueError, match="cochain does not match the slice shape"):
            delta_matrix(S, source, target)
    # x1 on slot 0 has weight 1, so it passes the block; x2^2 has degree 2
    mixed = MultiDerivation(3, 1, {(0,): V(3, 1), (1,): V(3, 2) ** 2})
    with pytest.raises(ValueError, match=r"\(1,\):\(0, 0, 2\) lies outside the slice"):
        cochain_in_coboundaries(S, mixed, d=1)
    rigid = catalog_get("rigid", {"n": 5})
    for phi in (MultiDerivation(6, 1, {(1,): V(6, 0)}), MultiDerivation(6, 1, {(0,): V(6, 1)})):
        with pytest.raises(ValueError, match="lies outside the slice"):
            cochain_in_coboundaries(rigid, phi, exclude_vars=(0,))


# -- one complex per structure ----------------------------------------------------------------

# name, params, weights, excluded variables, arities, degrees
SHARED_CASES = [
    ("P1", None, None, (), range(4), range(9)),
    ("P2", {"n": 4}, None, (), range(4), range(4)),
    ("rigid", {"n": 6}, tuple(range(7)), (0,), range(4), range(4)),
]


def _mixed_queries(name, params, weights, banned, ks, ds, rng):
    """Cohomology queries of every kind in a seeded order, each a function of S."""
    S = catalog_get(name, params)
    r = S.homogeneous_degree()
    queries = [lambda T: cohomology_dims(T, ks, ds, weights, banned).to_json_rows()]
    for k in ks:
        for d in ds:
            queries.append(
                lambda T, k=k, d=d: cohomology_dims(T, [k], [d], weights, banned).to_json_rows()
            )
            queries.append(lambda T, k=k, d=d: cocycle_representatives(T, k, d, weights, banned))
            phis = cocycle_representatives(S, k, d, weights, banned)
            source = slice_basis(S.n, k - 1, d - r + 1, weights, banned, banned)
            if k and source.dim:
                positions = rng.sample(range(source.dim), min(3, source.dim))
                psi = source.from_vector({p: Fraction(rng.randint(1, 5)) for p in positions})
                cob = delta(S, psi)
                phis += [cob] + [rep + cob for rep in phis]
            for phi in phis:
                queries.append(
                    lambda T, phi=phi, d=d: cochain_in_coboundaries(T, phi, d, weights, banned)
                )
    rng.shuffle(queries)
    return queries


@pytest.mark.parametrize("case", SHARED_CASES, ids=[c[0] for c in SHARED_CASES])
def test_interleaved_queries_match_fresh_structures(case):
    name, params = case[0], case[1]
    queries = _mixed_queries(*case, random.Random(2024))
    shared = catalog_get(name, params)
    answers = [query(shared) for query in queries]
    assert answers == [query(catalog_get(name, params)) for query in queries]
    assert len(shared._complexes) == 1
    assert any(a is True for a in answers) and any(a is False for a in answers)


def test_filters_on_one_structure_do_not_share_state():
    S = catalog_get("rigid", {"n": 6})
    ks, ds = range(4), range(3)
    filters = [(None, ()), (tuple(range(7)), ()), (tuple(range(7)), (0,))]
    # interleave the three filters, table and representatives alike
    got = {}
    for d in ds:
        for weights, banned in filters:
            got[weights, banned, d] = (
                cohomology_dims(S, ks, [d], weights, banned).to_json_rows(),
                [cocycle_representatives(S, k, d, weights, banned) for k in ks],
            )
    assert len(S._complexes) == 3
    for (weights, banned, d), answer in got.items():
        fresh = catalog_get("rigid", {"n": 6})
        assert answer == (
            cohomology_dims(fresh, ks, [d], weights, banned).to_json_rows(),
            [cocycle_representatives(fresh, k, d, weights, banned) for k in ks],
        )
    tables = [got[w, b, 2][0] for w, b in filters]
    assert tables[0] != tables[1] != tables[2]


def test_a_bad_excluded_index_stores_no_complex():
    S = p1()
    phi = cocycle_representatives(p1(), 2, 1)[0]
    queries = [
        lambda: cohomology_dims(S, [1], [1], exclude_vars=(3,)),
        lambda: cocycle_representatives(S, 1, 1, exclude_vars=(0, 5)),
        lambda: cochain_in_coboundaries(S, phi, d=1, exclude_vars=(-1,)),
        lambda: cochain_in_coboundaries(S, MultiDerivation.zero(3, 1), exclude_vars=(7,)),
    ]
    for query in queries:
        with pytest.raises(ValueError, match="excluded variable index"):
            query()
    assert S._complexes == {}


# -- clearing -----------------------------------------------------------------------------------

# name, params, weights, excluded variables, arities, degrees
CLEARING_CASES = [
    ("P1", None, None, (), range(4), range(9)),
    ("P2", {"n": 4}, None, (), range(5), range(4)),
    ("P2", {"n": 5}, None, (), range(6), range(4)),
    ("rigid", {"n": 6}, None, (), range(5), range(5)),
    ("rigid", {"n": 6}, tuple(range(7)), (0,), range(5), range(6)),
    ("rigid", {"n": 7}, None, (), range(5), range(5)),
    ("rigid", {"n": 7}, tuple(range(8)), (0,), range(5), range(5)),
    ("L3", {"alpha": 2}, None, (), range(4), range(6)),
    ("L3", {"alpha": -1}, None, (), range(4), range(6)),
    ("L3", {"alpha": 0}, None, (), range(4), range(6)),
]


@pytest.mark.parametrize("case", CLEARING_CASES, ids=[
    "P1", "P2-n=4", "P2-n=5", "rigid-n=6", "rigid-n=6-invariant", "rigid-n=7",
    "rigid-n=7-invariant", "L3-alpha=2", "L3-alpha=-1", "L3-alpha=0",
])
def test_cleared_echelons_span_the_whole_image(case, monkeypatch):
    # the source cochains at the incoming pivots map into the span of the
    # others, so the cleared echelon has the uncleared one's rank and holds
    # every column of the whole matrix, from dim block - incoming rank columns
    name, params, weights, banned, ks, ds = case
    assembled = collections.Counter()
    assemble = cohomology.delta_matrix

    def counted(S, source, target=None):
        matrix = assemble(S, source, target)
        assembled[matrix.target.k, matrix.target.d] += len(matrix.columns)
        return matrix

    S = catalog_get(name, params)
    cache = cohomology._complex(S, weights, banned)
    with monkeypatch.context() as patched:
        patched.setattr(cohomology, "delta_matrix", counted)
        cleared = {(k, d): cache.boundaries(k, d) for k in ks for d in ds}
    kept_fewer = False
    for (k, d), tracker in cleared.items():
        assert tracker.rank == uncleared_boundaries(cache, k, d).rank, (k, d)
        prev_d = d - cache.r + 1
        if k == 0 or prev_d < 0:
            assert assembled[k, d] == 0
            continue
        source = cache.block(k - 1, prev_d)
        for column in delta_matrix(S, source, cache.block(k, d)).columns:
            assert not tracker.residual(column), (k, d)
        incoming = cache.boundaries(k - 1, prev_d).rank
        assert assembled[k, d] == source.dim - incoming, (k, d)
        kept_fewer |= bool(source.dim and incoming)
    assert kept_fewer


@pytest.mark.parametrize("case", [
    ("P1", None, None, (), range(4), range(13)),
    ("rigid", {"n": 6}, tuple(range(7)), (0,), range(5), range(6)),
], ids=["P1", "rigid-n=6-invariant"])
def test_clearing_moves_no_representative_and_no_verdict(case):
    # representatives and membership read only the span of the boundary
    # echelon, which clearing keeps
    name, params, weights, banned = case[:4]
    queries = _mixed_queries(*case, random.Random(2032))
    cleared, uncleared = catalog_get(name, params), catalog_get(name, params)
    cache = cohomology._complex(uncleared, weights, banned)
    cache.boundaries = functools.cache(functools.partial(uncleared_boundaries, cache))
    answers = [query(cleared) for query in queries]
    assert answers == [query(uncleared) for query in queries]
    assert cache.boundaries.cache_info().currsize
    assert any(a is True for a in answers) and any(a is False for a in answers)
    assert any(isinstance(a, list) and a for a in answers)


# -- normalization ------------------------------------------------------------------------------


def test_normalize_cocycle_fixed_point():
    from polypoisson.reproduce import rigid_expected_cochain

    n = 8
    S = catalog_get("rigid", {"n": n})
    phi = rigid_expected_cochain(n)
    assert normalize_cocycle(S, phi) == phi


def test_normalize_cocycle_clears_ladder_slots():
    n = 7
    S = catalog_get("rigid", {"n": n})
    weights = tuple(range(n + 1))
    # a coboundary with nonzero ladder slots: delta of a diagonal 1-cochain
    f = MultiDerivation(n + 1, 1, {(1,): V(n + 1, 1)})
    phi = delta(S, f)
    assert any(phi.values.get((1, i)) for i in range(2, n))
    result = normalize_cocycle(S, phi)
    for i in range(2, n):
        assert (1, i) not in result.values
    # the class is unchanged: difference is a coboundary
    diff = phi - result
    if not diff.is_zero:
        assert cochain_in_coboundaries(S, diff, d=1, weights=weights, exclude_vars=(0,))


def test_normalize_cocycle_rejects_non_cocycles():
    S = catalog_get("rigid", {"n": 7})
    phi = MultiDerivation(8, 2, {(4, 5): V(8, 1) ** 2})
    if delta(S, phi).is_zero:
        pytest.skip("unexpectedly a cocycle")
    with pytest.raises(ValueError):
        normalize_cocycle(S, phi)
