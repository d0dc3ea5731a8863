"""Second routes that exist only to cross-check the package in tests.

Each is a direct, unoptimised definition of something the package computes
another way:

* ``two_sum_delta`` is the coboundary by the two-sum formula on coordinate
  tuples, with ``evaluate_first`` putting a polynomial into the first slot;
  ``cohomology.delta`` and ``delta_matrix`` apply the elementary-cochain
  rule.
* ``tuple_keyed_columns`` applies the same rule with every term keyed by
  its (slot tuple, exponents) pair, through ``slot_terms`` and
  ``elementary_image``, on exponent-tuple tables that ``integer_tables``
  builds from the rational entries and a position map of the target's
  basis; ``delta_matrix`` packs its tables straight from L * P and keys
  each pair by one int.
* ``probe_form_delta_sign`` finds the two signs of the form-route coboundary
  by comparing ``cohomology._form_delta_parts`` with ``delta`` on elementary
  cochains; ``cohomology.form_delta_sign`` gives them in closed form.
* ``evaluate_derivation`` is the Leibniz extension of a multiderivation to
  arbitrary polynomial arguments (the package stores and uses only its values
  on coordinate tuples).
* ``interior``, ``evaluate_form`` and ``coordinate_field`` are the interior
  product against a general polynomial vector field and the alternating
  evaluation of a form (the package contracts by coordinate fields only).
* ``full_elimination_dims`` is the cohomology table from ranks of whole
  slices; ``cohomology_dims`` eliminates only weight-0 blocks.
  ``insert_first`` is the contraction that makes the other blocks acyclic.
* ``cross_multiply_reduce`` is the plain cross-multiplied fraction-free
  step: it forms pv * cur - cv * pivot over the union of both supports in a
  new row, then divides by the row's gcd; ``cross_multiply_echelon`` stores
  rows with it.  ``linalg._reduce`` divides pv and cv by their gcd first and updates
  its residual in place over the pivot's support, and must store the same
  rows.
* ``greedy_representatives`` tries every kernel vector of the whole slice
  against freshly built coboundaries; ``cocycle_representatives`` works in
  the weight-0 block, reuses the structure's boundary echelon and stops
  once it holds dim H classes.
* ``uncleared_boundaries`` eliminates every column of a block's incoming
  coboundary matrix; ``_SliceCache.boundaries`` clears the source cochains
  at the pivot columns of the echelon one step below and assembles only
  the rest.
* ``jacobi_trisum_polynomial`` sums the Jacobi obstructions Polynomial by
  Polynomial on the rational bivector; ``multivector.jacobi_trisum`` adds
  the terms of its integer multiple into one dict per triple.
* ``integrability_by_contraction`` is the form route of integrability built
  from the form operations: it builds Omega with ``phi_map``, contracts it by
  the complement of each triple with ``interior_coordinates``, then takes
  ``d`` and the top-degree ``wedge``; ``multivector.integrability_via_forms``
  builds no form and reads the same three steps off tables of Omega, keyed
  straight off the entries of L * P, with closed-form signs.
* ``_perm_sign`` counts the inversions of a permutation;
  ``exterior._complement`` gives the sign of idx + complement in closed form.
* ``compositions`` lists the exponent tuples of degree d by recursion on
  the first exponent; ``poly.monomial_basis`` takes multisets of variables.
* ``graded_pieces`` forms the four graded pieces of Omega ^ dOmega from
  three derivatives and ten wedges of the homogeneous parts of Omega;
  ``poisson.graded_integrability`` reads them off the degrees of the one
  Jacobi obstruction that ``jacobi_trisum`` gives on three variables, the
  coefficient of Omega ^ dOmega.
* ``homogeneous_component`` and ``weight`` take the degree-d part of a
  polynomial and its common torus weight; the package builds each graded
  slice from its monomials, so it needs neither.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Iterable, Iterator, Optional, Sequence

from polypoisson import linalg
from polypoisson.cohomology import (
    CohomologyReport,
    CohomologyRow,
    GradedSlice,
    _SliceCache,
    _form_delta_parts,
    delta,
    delta_matrix,
    slice_basis,
)
from polypoisson.exterior import ExteriorForm, IndexTuple, _complement
from polypoisson.multivector import (
    MultiDerivation,
    _integer_multiple,
    bivector_entry,
    bivector_from_entries,
    phi_inverse,
    phi_map,
)
from polypoisson.poisson import GradedIntegrabilityReport, PoissonStructure, verify
from polypoisson.poly import Polynomial


def _perm_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation, by counting its inversions."""
    inversions = sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )
    return -1 if inversions % 2 else 1


# -- the form-route signs -----------------------------------------------------


def _probe_structure(n: int) -> PoissonStructure:
    """Fixed diagonalizable structure used only to pin the sign constants."""
    entries = {
        (0, 1): Polynomial.variable(n, 1),
        (0, 2): Polynomial.variable(n, 2) * 2,
    }
    return verify(bivector_from_entries(n, entries))


def probe_form_delta_sign(n: int, k: int) -> tuple[int, int]:
    """Sign constants (relative, global) aligning the form route with delta.

    Pinned by exact comparison on elementary probe cochains over a fixed
    structure.  Anything but a clean two-sign match raises.
    """
    if not 3 <= n or not 0 <= k < n:
        raise ValueError(f"no sign to resolve for n={n}, k={k}")
    S = _probe_structure(n)
    probes: list[MultiDerivation] = []
    monomials = [Polynomial.variable(n, j) for j in range(n)]
    monomials += [Polynomial.variable(n, j) * Polynomial.variable(n, j) for j in range(n)]
    if k == 0:
        probes = [MultiDerivation(n, 0, {(): m}) for m in monomials]
    else:
        for T in itertools.combinations(range(n), k):
            probes.extend(MultiDerivation(n, k, {T: m}) for m in monomials)
    trials = []
    with_a = with_b = 0
    for probe in probes:
        reference = delta(S, probe)
        part_a, part_b = _form_delta_parts(S, probe)
        if reference.is_zero and part_a.is_zero and part_b.is_zero:
            continue
        trials.append((reference, part_a, part_b))
        with_a += not part_a.is_zero
        with_b += not part_b.is_zero
        if len(trials) >= 8 and with_a >= 3 and with_b >= 3:
            break
    if not trials:
        raise AssertionError(f"no informative probes at n={n}, k={k}")
    candidates = []
    for rel in (1, -1):
        for overall in (1, -1):
            ok = all(
                phi_inverse(a * rel + b) * overall == ref
                for ref, a, b in trials
            )
            if ok:
                candidates.append((rel, overall))
    if not candidates:
        raise AssertionError(
            f"form route does not match the coboundary for any sign choice "
            f"at n={n}, k={k}"
        )
    # when one sum vanishes identically the relative sign is immaterial;
    # prefer the (+1, ...) convention for determinism
    return candidates[0]


# -- the two-sum coboundary ------------------------------------------------------


def two_sum_delta(S: PoissonStructure, phi: MultiDerivation) -> MultiDerivation:
    """Coboundary of a k-derivation; a (k+1)-derivation, zero once k >= n.

    The two-sum formula on coordinate tuples: per slot tuple U, the first sum
    brackets X_{u} with phi on the other slots, and the second puts
    {X_{u_a}, X_{u_b}} into the first slot of phi through ``evaluate_first``.
    """
    n = S.n
    if phi.n != n:
        raise ValueError("variable count mismatch")
    k = phi.k
    if k >= n:
        return MultiDerivation.zero(n, k + 1)
    out: dict[IndexTuple, Polynomial] = {}
    for U in itertools.combinations(range(n), k + 1):
        total = Polynomial.zero(n)
        for pos, u in enumerate(U):
            rest = U[:pos] + U[pos + 1 :]
            val = phi.values.get(rest)
            if val is not None:
                br = S.bracket_coordinate(u, val)
                if not br.is_zero:
                    total = total + br if pos % 2 == 0 else total - br
        if k:
            for a, b in itertools.combinations(range(k + 1), 2):
                entry = S.entry(U[a], U[b])
                if entry.is_zero:
                    continue
                rest = tuple(U[c] for c in range(k + 1) if c != a and c != b)
                val = evaluate_first(phi, entry, rest)
                if val.is_zero:
                    continue
                total = total + val if (a + b) % 2 == 0 else total - val
        if not total.is_zero:
            out[U] = total
    return MultiDerivation(n, k + 1, out)


def evaluate_first(
    phi: MultiDerivation, first: Polynomial, coords: Sequence[int]
) -> Polynomial:
    """Evaluate on (first, X_{c1}, ..., X_{c_{k-1}}) with coordinate tails.

    Only stored tuples containing all of ``coords`` plus one extra slot
    contribute, via a single partial of ``first``.
    """
    coords = tuple(coords)
    if len(coords) != phi.k - 1:
        raise ValueError("wrong number of coordinate arguments")
    if len(set(coords)) != len(coords):
        return Polynomial.zero(phi.n)
    cset = set(coords)
    total = Polynomial.zero(phi.n)
    tail_sign = _perm_sign(tuple(sorted(range(len(coords)), key=lambda a: coords[a])))
    for idx, val in phi.values.items():
        extra = [i for i in idx if i not in cset]
        if len(extra) != 1 or not cset.issubset(idx):
            continue
        t = extra[0]
        dfirst = first.partial(t)
        if dfirst.is_zero:
            continue
        pos = idx.index(t)
        contrib = val * dfirst
        if pos % 2:
            contrib = -contrib
        if tail_sign < 0:
            contrib = -contrib
        total = total + contrib
    return total


# -- the elementary-cochain rule on tuple keys ----------------------------------


def integer_tables(S: PoissonStructure) -> tuple[int, list[list], list[list]]:
    """(L, rows, partials): the entries of L * P and their partials, on exponent tuples.

    L is the lcm of the coefficient denominators of P.  ``rows[u]`` lists
    (j, terms) for each nonzero signed entry P_{uj}, a term being
    (e - e_j, coefficient); ``partials[t]`` lists (i, j, terms) for each
    nonzero dP_{ij}/dX_t with i < j, a term being (exponents, coefficient).
    Entries come in the order of the bivector's values, and every
    coefficient is an ``int``.
    """
    n = S.n
    values = S.bivector.values
    L = lcm(*(c.denominator for poly in values.values() for c in poly.terms.values()))
    rows: list[list] = [[] for _ in range(n)]
    partials: list[list] = [[] for _ in range(n)]
    for (i, j), poly in values.items():
        scaled = poly * L
        assert all(c.denominator == 1 for c in scaled.terms.values())
        for u, v, sign in ((i, j, 1), (j, i, -1)):
            rows[u].append((v, [(tuple(e - (m == v) for m, e in enumerate(exps)), int(sign * c))
                                for exps, c in scaled.terms.items()]))
        for t in range(n):
            dp = scaled.partial(t)
            if not dp.is_zero:
                partials[t].append((i, j, [(e, int(c)) for e, c in dp.terms.items()]))
    return L, rows, partials


def slot_terms(n: int, T: IndexTuple, rows: list[list], partials: list[list]) -> tuple[list, list]:
    """What the coboundary of x^a on slots T contributes, for any monomial x^a.

    ``rows`` and ``partials`` are ``integer_tables`` of the structure.
    Sum 1 lists (U, j, terms) with U = T + {u}: the term
    (-1)^{pos_U(u)} a_j P_{uj} x^{a - e_j} of {X_u, x^a}.  Sum 2 lists
    (U, terms) with U = T - {t} + {i, j}: x^a times the signed partials
    (-1)^{pos_T(t) + pos_U(i) + pos_U(j)} dP_{ij}/dX_t, merged per U.
    """
    sum1 = []
    for u in range(n):
        if u in T:
            continue
        pos = bisect_left(T, u)
        U = T[:pos] + (u,) + T[pos:]
        sign = -1 if pos % 2 else 1
        for j, terms in rows[u]:
            sum1.append((U, j, [(shift, sign * c) for shift, c in terms]))
    merged: dict[IndexTuple, dict[tuple[int, ...], int]] = {}
    for pt, t in enumerate(T):
        rest = T[:pt] + T[pt + 1 :]
        for i, j, terms in partials[t]:
            if i in rest or j in rest:
                continue
            pi, pj = bisect_left(rest, i), bisect_left(rest, j)
            U = rest[:pi] + (i,) + rest[pi:pj] + (j,) + rest[pj:]
            sign = -1 if (pt + pi + pj + 1) % 2 else 1
            poly = merged.setdefault(U, {})
            for exps, c in terms:
                poly[exps] = poly.get(exps, 0) + sign * c
    sum2 = []
    for U, poly in merged.items():
        terms = [(exps, c) for exps, c in poly.items() if c]
        if terms:
            sum2.append((U, terms))
    return sum1, sum2


def elementary_image(a: tuple[int, ...], sum1: list, sum2: list) -> dict[tuple, int]:
    """The image of x^a on slots T, from ``slot_terms`` of T, keyed by (U, exponents)."""
    acc: dict[tuple, int] = {}
    for U, j, terms in sum1:
        aj = a[j]
        if aj:
            for shift, c in terms:
                key = (U, tuple(map(add, a, shift)))
                acc[key] = acc.get(key, 0) + aj * c
    for U, terms in sum2:
        for shift, c in terms:
            key = (U, tuple(map(add, a, shift)))
            acc[key] = acc.get(key, 0) + c
    return acc


def tuple_keyed_columns(
    S: PoissonStructure, source: GradedSlice, target: GradedSlice
) -> tuple[dict[int, int], ...]:
    """``delta_matrix(S, source, target).columns``, from tuple keys.

    Every image term must lie in the target; a KeyError says it does not.
    """
    _, rows, partials = integer_tables(S)
    position = {pair: pos for pos, pair in enumerate(target.basis)}
    columns = []
    for T, a in source.basis:
        image = elementary_image(a, *slot_terms(S.n, T, rows, partials))
        columns.append({position[key]: value for key, value in image.items() if value})
    return tuple(columns)


# -- multiderivations on arbitrary arguments ------------------------------------


def evaluate_derivation(phi: MultiDerivation, args: Sequence[Polynomial]) -> Polynomial:
    """Leibniz extension: the unique skew k-derivation through the values.

    Equals sum over increasing tuples S of value(S) * det(d args_b / dX_{s_a}).
    """
    if len(args) != phi.k:
        raise ValueError(f"expected {phi.k} arguments, got {len(args)}")
    for a in args:
        if a.n != phi.n:
            raise ValueError("argument variable count mismatch")
    if phi.k == 0:
        return phi.values.get((), Polynomial.zero(phi.n))
    total = Polynomial.zero(phi.n)
    jac: dict[tuple[int, int], Polynomial] = {}

    def partial(i: int, b: int) -> Polynomial:
        key = (i, b)
        if key not in jac:
            jac[key] = args[b].partial(i)
        return jac[key]

    for idx, val in phi.values.items():
        det = Polynomial.zero(phi.n)
        for perm in itertools.permutations(range(phi.k)):
            prod = Polynomial.constant(phi.n, _perm_sign(perm))
            for a, b in enumerate(perm):
                prod = prod * partial(idx[a], b)
                if prod.is_zero:
                    break
            det = det + prod
        total = total + val * det
    return total


# -- forms on general vector fields ---------------------------------------------


def interior(form: ExteriorForm, components: Sequence[Polynomial]) -> ExteriorForm:
    """Interior product i(Y) for Y = sum components[i] * d/dX_i.

    i(Y)theta(Z_1,...,Z_{k-1}) = theta(Y, Z_1,...,Z_{k-1}).
    """
    if form.k == 0:
        raise ValueError("interior product of a degree-0 form")
    if len(components) != form.n:
        raise ValueError("vector field must have one component per variable")
    out: dict[IndexTuple, Polynomial] = {}
    for idx, coeff in form.terms.items():
        for pos, i in enumerate(idx):
            comp = components[i]
            if comp.is_zero:
                continue
            c = coeff * comp
            if pos % 2:
                c = -c
            rest = idx[:pos] + idx[pos + 1 :]
            s = out.get(rest)
            s = c if s is None else s + c
            if s.is_zero:
                out.pop(rest, None)
            else:
                out[rest] = s
    result = ExteriorForm.__new__(ExteriorForm)
    result.n, result.k, result.terms = form.n, form.k - 1, out
    return result


def evaluate_form(form: ExteriorForm, fields: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Alternating evaluation on k polynomial vector fields."""
    if len(fields) != form.k:
        raise ValueError(f"expected {form.k} vector fields, got {len(fields)}")
    total = Polynomial.zero(form.n)
    for idx, coeff in form.terms.items():
        # det of the k x k matrix fields[b][idx[a]]
        det = Polynomial.zero(form.n)
        for perm in itertools.permutations(range(form.k)):
            prod = Polynomial.constant(form.n, _perm_sign(perm))
            for a, b in enumerate(perm):
                prod = prod * fields[b][idx[a]]
                if prod.is_zero:
                    break
            det = det + prod
        total = total + coeff * det
    return total


def coordinate_field(n: int, i: int) -> list[Polynomial]:
    comps = [Polynomial.zero(n) for _ in range(n)]
    comps[i] = Polynomial.constant(n, 1)
    return comps


# -- cohomology by whole-slice elimination -------------------------------------


def full_elimination_dims(
    S: PoissonStructure,
    ks: Iterable[int],
    ds: Iterable[int],
    weights: Optional[Sequence[int]] = None,
    exclude_vars: Iterable[int] = (),
) -> CohomologyReport:
    """dim chi / Z / B / H per (k, d), each rank from the whole filtered slice."""
    n, r = S.n, S.homogeneous_degree()
    banned = tuple(exclude_vars)

    def whole(k: int, d: int):
        return slice_basis(n, k, d, weights, banned, banned)

    def rank(k: int, d: int) -> int:
        if d < 0 or k >= n or not whole(k, d).dim:
            return 0
        return linalg.rank(delta_matrix(S, whole(k, d), whole(k + 1, d + r - 1)).columns)

    rows = []
    for k in ks:
        for d in ds:
            dim_chi = whole(k, d).dim
            dim_B = rank(k - 1, d - r + 1) if k > 0 else 0
            rows.append(CohomologyRow(k, d, dim_chi, dim_chi - rank(k, d), dim_B))
    return CohomologyReport(rows)


def greedy_representatives(
    S: PoissonStructure,
    k: int,
    d: int,
    weights: Optional[Sequence[int]] = None,
    exclude_vars: Iterable[int] = (),
) -> list[MultiDerivation]:
    """Complement of B inside Z: every kernel vector that enlarges the span."""
    n, r = S.n, S.homogeneous_degree()
    banned = tuple(exclude_vars)

    def whole(k: int, d: int):
        return slice_basis(n, k, d, weights, banned, banned)

    sl = whole(k, d)
    if sl.dim == 0:
        return []
    if k >= n:
        kernel = [{i: Fraction(1)} for i in range(sl.dim)]
    else:
        kernel = delta_matrix(S, sl, whole(k + 1, d + r - 1)).kernel()
    tracker = linalg.SpanTracker()
    if k > 0 and d - r + 1 >= 0:
        for column in delta_matrix(S, whole(k - 1, d - r + 1), sl).columns:
            tracker.add(column)
    return [sl.from_vector(vec) for vec in kernel if tracker.add(vec)]


def uncleared_boundaries(cache: _SliceCache, k: int, d: int) -> linalg.SpanTracker:
    """The boundary echelon of block (k, d) from every column of the incoming matrix."""
    prev_d = d - cache.r + 1
    columns: Sequence[dict[int, int]] = ()
    if k > 0 and prev_d >= 0:
        columns = delta_matrix(cache.S, cache.block(k - 1, prev_d), cache.block(k, d)).columns
    return linalg.SpanTracker(columns)


# -- the cross-multiplied elimination step -------------------------------------


def cross_multiply_reduce(echelon: dict[int, dict[int, int]], cur: dict[int, int]) -> dict[int, int]:
    """Reduce an integer row by cross-multiplying with each pivot row; {} means dependent.

    Builds a new row at every step and leaves ``cur`` as it was.
    """
    while cur:
        col = min(cur)
        pivot = echelon.get(col)
        if pivot is None:
            break
        pv, cv = pivot[col], cur[col]
        new = {}
        for c in cur.keys() | pivot.keys():
            val = pv * cur.get(c, 0) - cv * pivot.get(c, 0)
            if val:
                new[c] = val
        if new:
            g = gcd(*new.values())
            if g > 1:
                new = {c: v // g for c, v in new.items()}
        cur = new
    return cur


def cross_multiply_echelon(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Integer rows in echelon form by ``cross_multiply_reduce``, keyed by pivot column."""
    echelon: dict[int, dict[int, int]] = {}
    for row in rows:
        res = cross_multiply_reduce(echelon, row)
        if res:
            echelon[min(res)] = res
    return echelon


def insert_first(phi: MultiDerivation, m: int) -> MultiDerivation:
    """The (k-1)-derivation phi(X_m, ...); needs k >= 1."""
    if phi.k == 0:
        raise ValueError("a 0-derivation has no slot to insert into")
    values = {}
    for T, val in phi.values.items():
        if m in T:
            pos = T.index(m)
            values[T[:pos] + T[pos + 1 :]] = val * (-1 if pos % 2 else 1)
    return MultiDerivation(phi.n, phi.k - 1, values)


# -- integrability ------------------------------------------------------------


def _triples_meeting(
    n: int, pairs: Iterable[Sequence[int]]
) -> Iterator[tuple[int, int, int]]:
    """Index triples i < j < k containing one of the pairs, in combinations order.

    Lazy, one triple at a time: a triple with no pair among its three is skipped
    without being built.  It walks all n(n - 1)/2 index pairs, so the two
    triple-driven oracles below cost at least that much.
    """
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for a, b in pairs:
        nbrs[a].add(b)
        nbrs[b].add(a)
    for i in range(n):
        for j in range(i + 1, n):
            if j in nbrs[i]:
                yield from ((i, j, k) for k in range(j + 1, n))
            else:
                yield from ((i, j, k) for k in sorted(nbrs[i] | nbrs[j]) if k > j)


def jacobi_trisum_polynomial(
    biv: MultiDerivation,
) -> list[tuple[int, int, int, Polynomial]]:
    """The Jacobi obstructions by Polynomial sums of products, triple by triple.

    Triple-driven, where ``jacobi_trisum`` starts from the entries: it visits
    every triple that meets an entry, in combinations order, and sums r over
    the nonzero P_{r,first}, with the bivector's own rational coefficients.
    """
    if biv.k != 2:
        raise ValueError("not a bivector")
    n = biv.n
    column: list[list[tuple[int, Polynomial]]] = [[] for _ in range(n)]
    for (a, b), val in biv.values.items():
        column[b].append((a, val))
        column[a].append((b, -val))
    for entries in column:
        entries.sort(key=lambda entry: entry[0])
    out = []
    for i, j, k in _triples_meeting(n, biv.values):
        total = Polynomial.zero(n)
        for first, pair in ((i, (j, k)), (j, (k, i)), (k, (i, j))):
            target = bivector_entry(biv, *pair)
            if target.is_zero:
                continue
            for r, p_rf in column[first]:
                dt = target.partial(r)
                if not dt.is_zero:
                    total = total + p_rf * dt
        if not total.is_zero:
            out.append((i, j, k, total))
    return out


def integrability_by_contraction(biv: MultiDerivation) -> bool:
    """d(alpha_T) ^ Omega = 0 for every triple T, through the form operations.

    alpha_T is Omega contracted by the complement of T; Omega is the form of
    the integer multiple, as in ``integrability_via_forms``.
    """
    if biv.k != 2:
        raise ValueError("not a bivector")
    n = biv.n
    if n < 3:
        raise ValueError("form criterion needs at least three variables")
    _, multiple = _integer_multiple(biv)
    omega = phi_map(multiple)
    # for n = 3 nothing is contracted, alpha = Omega and the one triple is (0, 1, 2);
    # alpha = i(idxs)Omega is nonzero exactly when the triple T left out of
    # idxs contains the pair {i, j} missing from some term of Omega
    pairs = (_complement(J, n)[0] for J in omega.terms)
    for triple in _triples_meeting(n, pairs):
        alpha = omega.interior_coordinates(_complement(triple, n)[0])
        if not alpha.d().wedge(omega).is_zero:
            return False
    return True


def graded_pieces(bivector: MultiDerivation) -> GradedIntegrabilityReport:
    """The graded report from Omega = Omega_0 + Omega_1 + Omega_2 piece by piece.

    Three variables, entries of degree at most two: each field is the sum of
    the wedges Omega_a ^ dOmega_b that the report names.
    """
    omega = phi_map(bivector)
    parts = []
    for d in range(3):
        terms = {
            idx: homogeneous_component(coeff, d)
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


def compositions(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """Every exponent tuple of n entries summing to d, first entry descending."""
    if n == 0:
        if d == 0:
            yield ()
        return
    if n == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in compositions(n - 1, d - first):
            yield (first,) + rest


def homogeneous_component(p: Polynomial, d: int) -> Polynomial:
    """The terms of p of total degree d."""
    return Polynomial(p.n, {e: c for e, c in p.terms.items() if sum(e) == d})


def weight(p: Polynomial, weights: Sequence[int]) -> Optional[int]:
    """Common weight of all terms of p, or None if p is not weight-homogeneous.

    The weight of a monomial is sum(exponent[i] * weights[i]); the zero
    polynomial has weight 0 by convention.
    """
    if len(weights) != p.n:
        raise ValueError(f"weight vector has {len(weights)} entries, expected n={p.n}")
    found = {sum(e * w for e, w in zip(exps, weights)) for exps in p.terms}
    if len(found) > 1:
        return None
    return found.pop() if found else 0
