import random
from fractions import Fraction

from polypoisson import linalg
from oracles import cross_multiply_echelon, cross_multiply_reduce


def dense_rank_oracle(rows, ncols):
    """Plain Gaussian elimination over Fractions, as an independent check."""
    mat = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [x / pv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def random_sparse_matrix(rng, nrows, ncols, density=0.4):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                row[c] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        rows.append({c: v for c, v in row.items() if v})
    return rows


def test_rank_trivial_cases():
    assert linalg.rank([]) == 0
    assert linalg.rank([{}, {}]) == 0
    identity = [{i: Fraction(1)} for i in range(5)]
    assert linalg.rank(identity) == 5


def test_rank_matches_dense_oracle():
    rng = random.Random(2024)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = random_sparse_matrix(rng, nrows, ncols)
        assert linalg.rank(rows) == dense_rank_oracle(rows, ncols)


def test_rank_transpose_invariant():
    rng = random.Random(99)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = random_sparse_matrix(rng, nrows, ncols)
        cols = [dict() for _ in range(ncols)]
        for r, row in enumerate(rows):
            for c, v in row.items():
                cols[c][r] = v
        assert linalg.rank(rows) == linalg.rank(cols)


def test_rank_does_not_depend_on_column_labels_or_row_order():
    # rank renumbers columns by how many rows touch them; relabelling the
    # columns or shuffling the rows beforehand must not change its answer
    rng = random.Random(3107)
    for _ in range(80):
        nrows, ncols = rng.randint(1, 16), rng.randint(1, 16)
        density = rng.choice([0.05, 0.1, 0.2, 0.4])
        rows = random_deficient_matrix(rng, nrows, ncols, density)
        expected = dense_rank_oracle(rows, ncols)
        assert linalg.rank(rows) == expected
        labels = rng.sample(range(3 * ncols), ncols)
        relabelled = [{labels[c]: v for c, v in row.items()} for row in rows]
        rng.shuffle(relabelled)
        assert linalg.rank(relabelled) == expected


def test_kernel_vectors_annihilate():
    rng = random.Random(7)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = random_sparse_matrix(rng, nrows, ncols)
        kernel = linalg.kernel_basis(rows, ncols)
        assert len(kernel) == ncols - linalg.rank(rows)
        for vec in kernel:
            for row in rows:
                image = sum(
                    (row[c] * vec[c] for c in row.keys() & vec.keys()), Fraction(0)
                )
                assert image == 0
        # kernel vectors are independent
        assert linalg.rank(kernel) == len(kernel)


def test_in_span():
    v1 = {0: Fraction(1), 1: Fraction(2)}
    v2 = {1: Fraction(1), 2: Fraction(-1)}
    combo = {0: Fraction(2), 1: Fraction(5), 2: Fraction(-1)}
    outside = {0: Fraction(1), 2: Fraction(1)}
    assert linalg.in_span([v1, v2], combo)
    assert not linalg.in_span([v1, v2], outside)
    assert linalg.in_span([v1, v2], {})


def test_span_tracker_counts_new_directions():
    tracker = linalg.SpanTracker()
    assert tracker.add({0: Fraction(1)})
    assert not tracker.add({0: Fraction(3, 2)})
    assert tracker.add({0: Fraction(1), 1: Fraction(1)})
    assert tracker.rank == 2


def test_span_tracker_copy_is_independent():
    rng = random.Random(77)
    for trial in range(40):
        rows = random_sparse_matrix(rng, rng.randint(1, 6), 8, 0.3)
        extra = random_sparse_matrix(rng, 8, 8, 0.4)
        if trial < 20:
            tracker = linalg.SpanTracker()
            for row in rows:
                tracker.add(row)
        else:
            # seeded on columns 0..4 only, so the extra rows bring new columns
            rows = [{c: v for c, v in row.items() if c < 5} for row in rows]
            tracker = linalg.SpanTracker(rows)
        before = [tracker.residual(row) for row in extra]
        copied = tracker.copy()
        assert copied.rank == tracker.rank
        # the copy keeps the column numbering, so it reduces to the same rows
        assert [copied.residual(row) for row in extra] == before
        for row in extra:
            copied.add(row)
        assert copied.rank == dense_rank_oracle(rows + extra, 8)
        # adding to the copy leaves the original's span and its numbers as they were
        assert tracker.rank == dense_rank_oracle(rows, 8)
        assert [tracker.residual(row) for row in extra] == before
        for row in extra:
            grown = dense_rank_oracle(rows + [row], 8) > tracker.rank
            assert bool(tracker.residual(row)) == grown
        # both trackers now reduce against the rows they share; each step
        # changes only its own residual, never a stored row
        shared = {p: dict(row) for p, row in tracker._echelon.items()}
        for row in extra:
            tracker.add(row)
        assert tracker.rank == copied.rank == dense_rank_oracle(rows + extra, 8)
        for p, row in shared.items():
            assert tracker._echelon[p] == copied._echelon[p] == row


def dense_kernel_oracle(rows, ncols):
    """Kernel from the dense Fraction RREF: per free column f, e_f minus the
    pivot entries of column f."""
    mat = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    pivots = []
    for col in range(ncols):
        r0 = len(pivots)
        pivot = next((r for r in range(r0, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[r0], mat[pivot] = mat[pivot], mat[r0]
        pv = mat[r0][col]
        mat[r0] = [x / pv for x in mat[r0]]
        for r in range(len(mat)):
            if r != r0 and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y if y else x for x, y in zip(mat[r], mat[r0])]
        pivots.append(col)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = {f: Fraction(1)}
        for i, p in enumerate(pivots):
            if mat[i][f]:
                vec[p] = -mat[i][f]
        basis.append(vec)
    return basis


def random_deficient_matrix(rng, nrows, ncols, density):
    """Random sparse rows, some replaced by combinations of earlier ones."""
    rows = random_sparse_matrix(rng, nrows, ncols, density)
    for i in range(1, nrows):
        if rng.random() < 0.3:
            a, b = rows[rng.randrange(i)], rows[rng.randrange(i)]
            s, t = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(1, 3), 2)
            combo = {c: s * a.get(c, 0) + t * b.get(c, 0) for c in a.keys() | b.keys()}
            rows[i] = {c: v for c, v in combo.items() if v}
    return rows


def test_kernel_basis_equals_dense_rref_kernel():
    rng = random.Random(4481)
    for _ in range(150):
        nrows, ncols = rng.randint(1, 25), rng.randint(1, 25)
        density = rng.choice([0.05, 0.1, 0.2, 0.3, 0.4])
        rows = random_deficient_matrix(rng, nrows, ncols, density)
        expected = dense_kernel_oracle(rows, ncols)
        assert linalg.kernel_basis(rows, ncols) == expected
        # the pivot set is fixed by the row space, so row order cannot matter
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert linalg.kernel_basis(shuffled, ncols) == expected


def test_span_tracker_verdicts_match_dense_rank_increments():
    rng = random.Random(512)
    for trial in range(80):
        nrows, ncols = rng.randint(1, 14), rng.randint(1, 10)
        density = rng.choice([0.1, 0.2, 0.4])
        rows = random_deficient_matrix(rng, nrows, ncols, density)
        seeded = 0
        if trial >= 40:
            # seed with a prefix that never touches some columns; the later
            # rows do, so those columns are numbered after the counted ones
            seeded = rng.randint(1, nrows)
            hidden = set(rng.sample(range(ncols), rng.randint(1, ncols)))
            rows[:seeded] = [{c: v for c, v in row.items() if c not in hidden}
                             for row in rows[:seeded]]
        tracker = linalg.SpanTracker(rows[:seeded])
        prev = dense_rank_oracle(rows[:seeded], ncols)
        assert tracker.rank == prev
        for row in rows[:seeded]:
            assert not tracker.residual(row)
        for i, row in enumerate(rows[seeded:], seeded):
            now = dense_rank_oracle(rows[: i + 1], ncols)
            assert bool(tracker.residual(row)) == (now > prev)
            assert tracker.add(row) == (now > prev)
            assert tracker.rank == now
            assert not tracker.residual(row)
            prev = now


def test_rank_of_a_real_coboundary_matrix_matches_dense_oracle():
    from polypoisson.catalog import catalog_get
    from polypoisson.cohomology import _transpose, delta_matrix, slice_basis

    S = catalog_get("P2", {"n": 5})
    matrix = delta_matrix(S, slice_basis(5, 1, 2))
    expected = dense_rank_oracle(matrix.columns, matrix.target.dim)
    assert 0 < expected < matrix.source.dim
    assert linalg.rank(matrix.columns) == expected
    assert linalg.rank(_transpose(matrix.columns, matrix.target.dim)) == expected


def test_rank_on_a_fill_heavy_rigid_slice_matches_the_kernel():
    # in natural order this slice fills its echelon rows in; kernel_basis still
    # eliminates in that order, so rank-nullity checks the renumbered rank
    from polypoisson.catalog import catalog_get
    from polypoisson.cohomology import _transpose, delta_matrix, slice_basis

    S = catalog_get("rigid", {"n": 8})
    source = slice_basis(S.n, 2, 4, weights=tuple(range(S.n)),
                         exclude_value_vars=(0,), exclude_slot_vars=(0,))
    matrix = delta_matrix(S, source)
    expected = matrix.source.dim - len(matrix.kernel())
    assert 0 < expected < matrix.source.dim
    rows = _transpose(matrix.columns, matrix.target.dim)
    assert linalg.rank(matrix.columns) == linalg.rank(rows) == expected


def random_hard_matrix(rng, nrows, ncols, density):
    """Rows of int, Fraction or mixed entries: negative values, some of 2**70
    and more, explicit zeros, and rows that combine earlier ones."""
    kind = rng.choice(["int", "fraction", "mixed"])
    big = rng.random() < 0.5

    def entry():
        v = rng.randint(-9, 9)
        if big and rng.random() < 0.4:
            v *= rng.randint(2**70, 2**74)
        if kind == "fraction" or (kind == "mixed" and rng.random() < 0.5):
            return Fraction(v, rng.randint(1, 6))
        return v

    rows = [{c: entry() for c in range(ncols) if rng.random() < density}
            for _ in range(nrows)]
    for i in range(1, nrows):
        if rng.random() < 0.3:
            a, b = rows[rng.randrange(i)], rows[rng.randrange(i)]
            s = rng.randint(-3, 3)
            t = rng.randint(1, 3) if kind == "int" else Fraction(rng.randint(1, 3), 2)
            # keeps the zeros of cancelled entries explicit
            rows[i] = {c: s * a.get(c, 0) + t * b.get(c, 0) for c in a.keys() | b.keys()}
    return rows


def _assert_same_elimination_as_cross_multiplying(rows, ncols, monkeypatch):
    """Stored rows, pivot order and kernel equal those of the cross-multiplied step."""
    natural = linalg._echelon(linalg._integerize(row, range(ncols)) for row in rows)
    oracle = cross_multiply_echelon(linalg._integerize(row, range(ncols)) for row in rows)
    assert natural == oracle and list(natural) == list(oracle)
    tracker = linalg.SpanTracker(rows)
    oracle = cross_multiply_echelon(linalg._integerize(row, tracker._relabel) for row in rows)
    assert tracker._echelon == oracle and list(tracker._echelon) == list(oracle)
    kernel = linalg.kernel_basis(rows, ncols)
    with monkeypatch.context() as patched:
        patched.setattr(linalg, "_reduce", cross_multiply_reduce)
        assert linalg.kernel_basis(rows, ncols) == kernel


def test_reduction_stores_the_cross_multiplied_echelon(monkeypatch):
    # dividing pv and cv by their gcd first scales each step by a positive
    # factor, and the content division removes it again
    rng = random.Random(2510)
    for _ in range(200):
        nrows, ncols = rng.randint(1, 18), rng.randint(1, 14)
        rows = random_hard_matrix(rng, nrows, ncols, rng.choice([0.15, 0.3, 0.6]))
        _assert_same_elimination_as_cross_multiplying(rows, ncols, monkeypatch)


def test_reduction_on_real_coboundaries_stores_the_cross_multiplied_echelon(monkeypatch):
    from polypoisson.catalog import catalog_get
    from polypoisson.cohomology import _complex, _transpose, delta_matrix, slice_basis

    P2 = catalog_get("P2", {"n": 5})
    m = delta_matrix(P2, slice_basis(5, 1, 2))
    assert 0 < linalg.rank(m.columns) < m.source.dim
    _assert_same_elimination_as_cross_multiplying(m.columns, m.target.dim, monkeypatch)
    rows = _transpose(m.columns, m.target.dim)
    _assert_same_elimination_as_cross_multiplying(rows, m.source.dim, monkeypatch)
    # the big coboundary of rigid n=10 invariant H^2 at d=3, on the two paths
    # production takes: its boundary echelon and its kernel (in natural order
    # on the rows, where the echelon fills to 7,337 entries)
    rigid = catalog_get("rigid", {"n": 10})
    invariant = _complex(rigid, tuple(range(11)), (0,))
    m = delta_matrix(rigid, invariant.block(2, 3), invariant.block(3, 3))
    tracker = linalg.SpanTracker(m.columns)
    oracle = cross_multiply_echelon(linalg._integerize(col, tracker._relabel) for col in m.columns)
    assert tracker._echelon == oracle and list(tracker._echelon) == list(oracle)
    assert 0 < tracker.rank < m.source.dim
    kernel = m.kernel()
    assert len(kernel) == m.source.dim - tracker.rank
    with monkeypatch.context() as patched:
        patched.setattr(linalg, "_reduce", cross_multiply_reduce)
        assert m.kernel() == kernel


def test_no_input_row_is_changed():
    # _reduce updates its residual in place, so every entry point must hand
    # it a row of its own
    rng = random.Random(4403)
    for _ in range(120):
        nrows, ncols = rng.randint(1, 14), rng.randint(1, 10)
        rows = random_hard_matrix(rng, nrows, ncols, rng.choice([0.2, 0.4, 0.7]))
        extra = random_hard_matrix(rng, 6, ncols, 0.5)
        before = [dict(row) for row in rows + extra]
        linalg.rank(rows)
        linalg.kernel_basis(rows, ncols)
        tracker = linalg.SpanTracker(rows[: nrows // 2])
        for row in extra:
            tracker.residual(row)
        for row in rows[nrows // 2:] + extra:
            tracker.add(row)
        for row in extra:
            linalg.in_span(rows, row)
        assert rows + extra == before


def test_pivot_columns_complete_the_span_with_unit_vectors():
    # the stored rows restricted to their pivots are triangular, so the unit
    # vectors of the other columns complete the span to the whole space,
    # whatever labels and column order the tracker uses
    rng = random.Random(3211)
    for _ in range(150):
        ncols = rng.randint(1, 10)
        rows = random_hard_matrix(rng, rng.randint(1, 12), ncols, rng.choice([0.2, 0.5]))
        labels = rng.sample(range(100), ncols)
        rows = [{labels[c]: v for c, v in row.items()} for row in rows]
        tracker = linalg.SpanTracker(rows)
        pivots = tracker.pivot_columns()
        assert len(pivots) == tracker.rank and pivots <= set(labels)
        units = [{c: 1} for c in labels if c not in pivots]
        assert linalg.rank(rows + units) == ncols


def test_boundary_echelons_leave_the_matrix_columns_unchanged(monkeypatch):
    from polypoisson import cohomology
    from polypoisson.catalog import catalog_get

    built = []
    real = cohomology.delta_matrix

    def recording(*args):
        m = real(*args)
        built.append((m, [dict(col) for col in m.columns]))
        return m

    monkeypatch.setattr(cohomology, "delta_matrix", recording)
    S = catalog_get("rigid", {"n": 8})
    cache = cohomology._complex(S, tuple(range(9)), (0,))
    requested = [(2, 2), (3, 3), (3, 4)]
    for k, d in requested:
        tracker = cache.boundaries(k, d)
        (m,) = [m for m, _ in built if (m.target.k, m.target.d) == (k, d)]
        for col in m.columns:
            assert not tracker.residual(col)
    # clearing builds the echelons below a requested one first
    assert len(built) > len(requested) and all(m.columns for m, _ in built)
    for m, columns in built:
        assert list(m.columns) == columns
