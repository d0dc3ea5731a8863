import itertools
import math
import random
from fractions import Fraction

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
    slice_dims,
)
from polypoisson.exterior import ExteriorForm
from polypoisson.multivector import MultiDerivation, bivector_from_entries, phi_inverse
from polypoisson.poisson import verify
from polypoisson.poly import Polynomial, monomial_basis

from conftest import random_cochain, random_poly
from oracles import (
    evaluate_derivation,
    full_elimination_dims,
    insert_first,
    probe_form_delta_sign,
)


def V(n, i):
    return Polynomial.variable(n, i)


def p1():
    return catalog_get("P1")


def zero_structure(n):
    return verify(bivector_from_entries(n, {}))


# -- delta ------------------------------------------------------------------------


def test_delta_on_zero_cochain_of_p1():
    S = p1()
    d0 = delta(S, MultiDerivation.from_polynomial(V(3, 1)))
    assert d0.values == {(0,): V(3, 1)}


def test_delta_kills_constants():
    S = p1()
    one = MultiDerivation.from_polynomial(Polynomial.constant(3, 1))
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
                    idx: random_poly(S.n, d, rng).homogeneous_component(d)
                    for idx in phi.values
                },
            )
            image = delta(S, phi)
            for poly in image.values.values():
                assert poly.is_homogeneous(d + r - 1)


# -- delta via forms ------------------------------------------------------------------


def test_delta_via_forms_matches_delta_on_examples():
    S = p1()
    phi0 = MultiDerivation.from_polynomial(V(3, 1))
    assert delta_via_forms(S, phi0) == delta(S, phi0)
    phi2 = phi_inverse(ExteriorForm.basis(3, (1,), V(3, 1) ** 2))
    assert delta_via_forms(S, phi2).is_zero


def test_delta_via_forms_zero_structure(rng):
    S = zero_structure(4)
    phi = random_cochain(4, 2, 2, rng)
    assert delta_via_forms(S, phi).is_zero


def test_delta_via_forms_random(rng):
    structures = [p1(), catalog_get("P2", {"n": 4}), catalog_get("rigid", {"n": 4})]
    for S in structures:
        n = S.n
        for k in range(0, min(4, n)):
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


def test_slice_invariant_rigid_example():
    # variables X0..X5 with weights 0..5; degree-2 values, first variable
    # excluded everywhere: the X2 slot admits exactly X1^2
    sl = slice_basis(
        6, 1, 2, weights=(0, 1, 2, 3, 4, 5),
        exclude_value_vars=(0,), exclude_slot_vars=(0,),
    )
    x2_slot = [m for (idx, m) in sl.basis if idx == (2,)]
    assert x2_slot == [(0, 2, 0, 0, 0, 0)]


def test_slice_vector_roundtrip(rng):
    sl = slice_basis(3, 2, 2)
    for _ in range(10):
        vec = {
            i: Fraction(rng.randint(-3, 3))
            for i in rng.sample(range(sl.dim), 5)
        }
        vec = {i: v for i, v in vec.items() if v}
        assert sl.to_vector(sl.from_vector(vec)) == vec


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
    assert m.rank() == 0


def test_delta_matrix_p1_constants_are_casimirs():
    S = p1()
    m = delta_matrix(S, slice_basis(3, 0, 0))
    assert m.rank() == 0


def test_delta_matrix_p2_smallest_case():
    # two variables, {X1,X2} = X2: the degree-2 coboundary matrix was derived
    # by hand: image spanned by X1^2, X1*X2, X2^2, hence rank 3
    S = catalog_get("P2", {"n": 2})
    source = slice_basis(2, 1, 2)
    m = delta_matrix(S, source)
    assert m.shape == (3, 6)
    assert m.rank() == 3
    report = cohomology_dims(S, [2], [2])
    assert report.row(2, 2).dim_H == 0


def test_delta_matrix_rank_p2_three_variables():
    # hand computation: 11 independent linear functionals on the 18 source
    # coefficients, kernel of dimension 7
    S = catalog_get("P2", {"n": 3})
    m = delta_matrix(S, slice_basis(3, 1, 2))
    assert m.shape == (18, 18)
    assert m.rank() == 11
    assert len(m.kernel()) == 7


def test_delta_matrix_filtered_closure_rigid():
    S = catalog_get("rigid", {"n": 5})
    weights = tuple(range(6))
    src = slice_basis(6, 2, 2, weights=weights,
                      exclude_value_vars=(0,), exclude_slot_vars=(0,))
    m = delta_matrix(S, src)  # raises if the image leaves the filtered slice
    assert m.shape[1] == src.dim


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
            assert m.columns[p] == tgt.to_vector(delta(S, src.element(p))), (S, k, d, p)
            assert all(type(v) is Fraction for v in m.columns[p].values())
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
    S = verify(p1().bivector * Fraction(1, 3))
    m = delta_matrix(S, slice_basis(3, 1, 2))
    assert any(v.denominator == 3 for col in m.columns for v in col.values())
    plain = delta_matrix(p1(), slice_basis(3, 1, 2))
    assert m.columns == tuple(
        {pos: v / 3 for pos, v in col.items()} for col in plain.columns
    )


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
            assert poly.weight(weights) == i + j
        slot = phi.values.get((1, n))
        if slot is not None:
            assert slot.weight(weights) == n + 1


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
        return cache.slice(k, d).dim + 1

    monkeypatch.setattr(cohomology._SliceCache, "outgoing_rank", too_large)
    with pytest.raises(ComplexInvariantError, match="rank-nullity"):
        cohomology_dims(p1(), [1], [1])


def test_coboundaries_exceeding_cocycles_raise(monkeypatch):
    # full rank everywhere: dim B of (1, 0) is dim chi of (0, 0) = 1, dim Z is 0
    def full(cache, k, d):
        return cache.slice(k, d).dim

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
        assert cohomology._diagonal_weights(S) == w
    third = verify(catalog_get("P2", {"n": 4}).bivector * Fraction(1, 3))
    assert cohomology._diagonal_weights(third) == (0, 1, 2, 3)
    assert cohomology._diagonal_weights(catalog_get("L2")) == (0, 1, -1)
    for S in (catalog_get("L1"), catalog_get("L4"), zero_structure(3)):
        assert cohomology._diagonal_weights(S) is None


def test_weight_block_tables_match_full_elimination():
    cases = [(p1(), range(4), range(7))]
    cases += [(catalog_get("P2", {"n": n}), range(n + 1), range(4)) for n in range(3, 7)]
    cases += [(catalog_get("rigid", {"n": n}), range(4), range(3)) for n in (4, 5, 6)]
    cases.append((verify(catalog_get("P2", {"n": 4}).bivector * Fraction(1, 3)),
                   range(5), range(4)))  # fractional weights
    cases.append((catalog_get("L2"), range(4), range(5)))  # a negative weight
    cases.append((catalog_get("L3", {"alpha": 0}), range(4), range(5)))  # w_2 = 0
    for S, ks, ds in cases:
        assert cohomology._diagonal_weights(S) is not None
        assert cohomology_dims(S, ks, ds).rows == full_elimination_dims(S, ks, ds).rows


def test_tables_without_a_diagonal_coordinate_match_full_elimination():
    cases = [
        (catalog_get("L1"), range(4), range(5)),
        (catalog_get("L4"), range(4), range(5)),
        (verify(bivector_from_entries(3, {(0, 1): V(3, 2) ** 2})), range(4), range(4)),
        (zero_structure(3), range(5), range(3)),
    ]
    for S, ks, ds in cases:
        assert cohomology._diagonal_weights(S) is None
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
                    phi = sl.element(pos)
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
                        S.n, k, d, None, frozenset(), frozenset(), tuple(basis),
                        {pair: pos for pos, pair in enumerate(basis)},
                    )
                    for vec in delta_matrix(S, block, target).kernel():
                        c = block.from_vector(vec)
                        assert c == delta(S, insert_first(c, m)) * Fraction(1, lam)
                        checked += 1
    assert checked > 100


def test_counted_dims_match_the_basis():
    for n in range(1, 7):
        cache = cohomology._SliceCache(zero_structure(n), None, ())
        filtered = cohomology._SliceCache(zero_structure(n), tuple(range(n)), (0,))
        for k in range(n + 2):
            for d in range(-1, 5):
                plain = slice_basis(n, k, d).dim
                assert cache.dim(k, d) == plain
                if 0 <= k <= n and d >= 0:
                    assert plain == math.comb(n, k) * math.comb(n + d - 1, d)
                invariant = slice_basis(n, k, d, tuple(range(n)), (0,), (0,)).dim
                assert filtered.dim(k, d) == invariant


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
        slice_dims(3, 2, exclude_value_vars=(bad,))
    with pytest.raises(ValueError, match=f"index {bad} "):
        slice_dims(3, 2, exclude_slot_vars=(bad,))
    with pytest.raises(ValueError, match=f"index {bad} "):
        cohomology_dims(p1(), [1], [1], exclude_vars=(bad,))


def test_weight_block_rank_out_of_range_raises(monkeypatch):
    # a block larger than its slice leaves a negative rank for the other weights
    def too_large(cache, k, d):
        return cache.dim(k, d) + 1

    monkeypatch.setattr(cohomology._SliceCache, "block_dim", too_large)
    with pytest.raises(ComplexInvariantError, match="weight blocks fail"):
        cohomology_dims(p1(), [1], [1])


def test_weight_blocks_that_do_not_close_raise(monkeypatch):
    # one spare cochain at k = n breaks the Euler characteristic of the
    # blocks of weight != 0; every correction stays in range
    real_dim = cohomology._SliceCache.dim

    def padded(cache, k, d):
        return real_dim(cache, k, d) + (k == cache.S.n)

    monkeypatch.setattr(cohomology._SliceCache, "dim", padded)
    with pytest.raises(ComplexInvariantError, match="do not close"):
        cohomology_dims(p1(), [1], [1])


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
        spanned = list(incoming.columns) + [target.to_vector(rep)]
        assert linalg.in_span(spanned, target.to_vector(phi))


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
