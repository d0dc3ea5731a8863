"""Second routes that exist only to cross-check the package in tests.

Each is a direct, unoptimised definition of something the package computes
another way:

* ``probe_form_delta_sign`` finds the two signs of the form-route coboundary
  by comparing ``cohomology._form_delta_parts`` with ``delta`` on elementary
  cochains; ``cohomology.form_delta_sign`` gives them in closed form.
* ``evaluate_derivation`` is the Leibniz extension of a multiderivation to
  arbitrary polynomial arguments (the package stores and uses only its values
  on coordinate tuples).
* ``interior``, ``evaluate_form`` and ``coordinate_field`` are the interior
  product against a general polynomial vector field and the alternating
  evaluation of a form (the package contracts by coordinate fields only).
"""

from __future__ import annotations

import itertools
from typing import Sequence

from polypoisson.cohomology import _form_delta_parts, delta
from polypoisson.exterior import ExteriorForm, IndexTuple, _perm_sign
from polypoisson.multivector import MultiDerivation, bivector_from_entries, phi_inverse
from polypoisson.poisson import PoissonStructure, verify
from polypoisson.poly import Polynomial

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
        probes = [MultiDerivation.from_polynomial(m) for m in monomials]
    else:
        for T in itertools.combinations(range(n), k):
            probes.extend(MultiDerivation.elementary(n, T, m) for m in monomials)
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
        return phi.as_polynomial()
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
