"""The benchmark's workloads: their inputs, ops and answer checks.

A workload function takes a session, a seeded ``random.Random``, the ``tiny``
flag and the reference answers.  It builds its inputs (the set-up the
benchmark times) and returns a function that issues the ops through
``session.op``.  Every op calls polypoisson through a module attribute, so a
tracer that replaced the attribute sees the call.  Checks run after the timed
ops and return a list of problems; an empty list means the answer is right.

Only ``p1-classes`` (random coboundaries) and ``screen`` (parameter points)
draw from the seed; ``p2-table`` and ``rigid-h2`` are fixed computations.
Answer checks and the random coboundaries use ``cohomology.delta``, the
two-sum coboundary, outside the timed ops.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from polypoisson import catalog, cohomology, poisson, reproduce

P2_KS, P2_DS = range(3), range(4)
P1_KS = range(4)
SCREEN_POINTS = 60
SCREEN_FIXED = {
    "rigid": (12, 16, 20, 24),
    "P2": (12, 16, 20, 24),
    "deformed-mu": (8, 12, 16, 20),
}
SCREEN_FIXED_TINY = {"rigid": (5,), "P2": (4,), "deformed-mu": (8, 9)}


# -- checks ----------------------------------------------------------------------


def check_table(rows: list[dict], expected: list[dict], r: int) -> list[str]:
    """Compare cohomology rows with the reference and with the complex's invariants.

    Needs no reference: 0 <= dim B <= dim Z <= dim chi, dim H = dim Z - dim B,
    and, where the table holds both rows, dim Z + rank = dim chi with the rank
    of the coboundary out of (k, d) read as dim B of (k + 1, d + r - 1).
    """
    problems = []
    by_key = {(row["k"], row["d"]): row for row in rows}
    for want in expected:
        got = by_key.get((want["k"], want["d"]))
        if got != want:
            problems.append(f"row k={want['k']} d={want['d']}: got {got}, reference {want}")
    if len(by_key) != len(expected):
        problems.append(f"{len(by_key)} rows, reference has {len(expected)}")
    for (k, d), row in by_key.items():
        if not 0 <= row["dim_B"] <= row["dim_Z"] <= row["dim_chi"]:
            problems.append(f"row k={k} d={d}: not 0 <= B <= Z <= chi: {row}")
        if row["dim_H"] != row["dim_Z"] - row["dim_B"]:
            problems.append(f"row k={k} d={d}: dim H is not dim Z - dim B: {row}")
        above = by_key.get((k + 1, d + r - 1))
        if above is not None and row["dim_Z"] + above["dim_B"] != row["dim_chi"]:
            problems.append(
                f"row k={k} d={d}: dim Z {row['dim_Z']} + rank {above['dim_B']} "
                f"!= dim chi {row['dim_chi']}"
            )
    return problems


def check_report(expected: list[dict], r: int, report) -> list[str]:
    return check_table(report.to_json_rows(), expected, r)


def check_equals(expected, answer) -> list[str]:
    return [] if answer == expected else [f"got {answer!r}, expected {expected!r}"]


def check_representatives(S, k: int, d: int, dim_h: int, reps) -> list[str]:
    """dim H representatives, each a cocycle of the (k, d) slice."""
    problems = []
    if len(reps) != dim_h:
        problems.append(f"{len(reps)} representatives, reference dim H = {dim_h}")
    for i, rep in enumerate(reps):
        degrees = {p.total_degree() for p in rep.values.values()}
        if rep.k != k or rep.is_zero or degrees != {d}:
            problems.append(f"representative {i} is not a nonzero cochain of slice ({k}, {d})")
        elif not cohomology.delta(S, rep).is_zero:
            problems.append(f"representative {i} is not a cocycle")
    return problems


def check_verdict(reference: bool, catalog_expects: bool, answer) -> list[str]:
    """``answer`` is (verify verdict, graded all_hold or None off three variables)."""
    verdict, graded = answer
    problems = check_equals(reference, verdict)
    if verdict != catalog_expects:
        problems.append(f"verify says {verdict}, the catalog expects {catalog_expects}")
    if graded is not None and graded != verdict:
        problems.append(f"graded_integrability says {graded}, verify says {verdict}")
    return problems


# -- workloads -------------------------------------------------------------------


def p2_table(session, rng, tiny: bool, reference: dict):
    """P2, plain: the whole table k in 0..2, d in 0..3 from one cohomology_dims call."""
    n = 3 if tiny else 7
    with session.setup():
        S = catalog.catalog_get("P2", {"n": n})
    check = partial(check_report, reference["P2"][str(n)], S.homogeneous_degree())

    def run():
        session.op("table", lambda: cohomology.cohomology_dims(S, P2_KS, P2_DS), check)

    return run


def rigid_h2(session, rng, tiny: bool, reference: dict):
    """Rigid family, invariant (weights 0..n, X0 excluded): H^2 at d = 1 and d = 3."""
    n, ds = (5, (1,)) if tiny else (10, (1, 3))
    with session.setup():
        S = catalog.catalog_get("rigid", {"n": n})
    weights = tuple(range(n + 1))
    expected = {row["d"]: row for row in reference["rigid"][str(n)]}
    r = S.homogeneous_degree()

    def run():
        for d in ds:
            session.op(
                f"H2 d={d}",
                lambda d=d: cohomology.cohomology_dims(
                    S, [2], [d], weights=weights, exclude_vars=(0,)
                ),
                partial(check_report, [expected[d]], r),
            )

    return run


def _random_coboundary(S, k: int, d: int, rng):
    """delta of a random cochain with up to three terms, landing in slice (k, d)."""
    r = S.homogeneous_degree()
    source = cohomology.slice_basis(S.n, k - 1, d - r + 1)
    positions = rng.sample(range(source.dim), min(3, source.dim))
    psi = source.from_vector(
        {p: Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for p in positions}
    )
    return cohomology.delta(S, psi)


def p1_classes(session, rng, tiny: bool, reference: dict):
    """P1, plain: representatives of every (k, d) class, then class membership.

    Each representative must not lie in the coboundaries, and one seeded
    random coboundary per (k >= 1, d) must.
    """
    ds = range(3) if tiny else range(13)
    with session.setup():
        S = catalog.catalog_get("P1")
    dim_h = {(row["k"], row["d"]): row["dim_H"] for row in reference["P1"]}
    coboundaries = [(k, d, _random_coboundary(S, k, d, rng)) for k in P1_KS[1:] for d in ds]
    not_trivial = partial(check_equals, False)
    trivial = partial(check_equals, True)

    def run():
        found = {}
        for k in P1_KS:
            for d in ds:
                found[k, d] = session.op(
                    f"reps k={k} d={d}",
                    lambda k=k, d=d: cohomology.cocycle_representatives(S, k, d),
                    partial(check_representatives, S, k, d, dim_h[k, d]),
                )
        for (k, d), reps in found.items():
            for i, rep in enumerate(reps or ()):
                session.op(
                    f"rep k={k} d={d} #{i}",
                    lambda rep=rep, d=d: cohomology.cochain_in_coboundaries(S, rep, d=d),
                    not_trivial,
                )
        for k, d, phi in coboundaries:
            session.op(
                f"coboundary k={k} d={d}",
                lambda phi=phi, d=d: cohomology.cochain_in_coboundaries(S, phi, d=d),
                trivial,
            )

    return run


def screen_op(name: str, params: dict, first_index: int):
    bivector = catalog.catalog_bivector(name, params)
    try:
        poisson.verify(bivector, first_index=first_index)
        verdict = True
    except poisson.IntegrabilityError:
        verdict = False
    graded = poisson.graded_integrability(bivector).all_hold if bivector.n == 3 else None
    return verdict, graded


def screen(session, rng, tiny: bool, reference: dict):
    """verify (and, on three variables, graded_integrability) over a seeded job list.

    Seeded parameter points for every classified entry, plus the large rigid,
    P2 and deformed-mu structures; deformed-mu at n >= 9 must be rejected.
    """
    verdicts = reference["screen"]
    jobs = []
    with session.setup():
        for name in reproduce.CLASSIFIED_ENTRIES:
            entry = catalog.CATALOG[name]
            for i in range((2 if tiny else SCREEN_POINTS) if entry.params else 1):
                params = reproduce.sample_params(name, rng)
                jobs.append((f"{name} #{i}", name, params, verdicts["classified"][name]))
        for name, ns in (SCREEN_FIXED_TINY if tiny else SCREEN_FIXED).items():
            for n in ns:
                jobs.append((f"{name} n={n}", name, {"n": n}, verdicts["fixed"][name][str(n)]))
    def run():
        for label, name, params, expected in jobs:
            session.op(
                label,
                partial(screen_op, name, params, catalog.CATALOG[name].first_index),
                partial(check_verdict, expected, catalog.CATALOG[name].expect_integrable(params)),
            )

    return run


WORKLOADS = {
    "p2-table": p2_table,
    "rigid-h2": rigid_h2,
    "p1-classes": p1_classes,
    "screen": screen,
}
