"""Command-line interface: verify, bracket, delta, cohomology, catalog, reproduce.

Exit codes: 0 success, 1 mathematical negative (non-integrable input, mixed
entry degrees or a reproduction mismatch), 2 usage/parse/IO errors.  Any
other ``ValueError`` a command raises, such as a bad catalog parameter, is a
usage error: it prints one ``error:`` line and exits 2.  Output is
deterministic: identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .catalog import CATALOG, catalog_bivector, catalog_get
from .cohomology import (
    cohomology_dims, delta, delta_matrix, delta_via_forms, diagonal_weights, slice_basis,
)
from .multivector import MultiDerivation, bivector_from_entries
from .poisson import IntegrabilityError, PoissonStructure, verify
from .poly import ParseError, add_into, format_poly, parse_poly
from .reproduce import CHECKS, run_check

USAGE_ERROR = 2
MATH_NEGATIVE = 1


class CliError(Exception):
    def __init__(self, message: str, code: int = USAGE_ERROR) -> None:
        super().__init__(message)
        self.code = code


def _parse_params(pairs: Optional[Sequence[str]]) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise CliError(f"--param expects name=value, got {pair!r}")
        name, _, value = pair.partition("=")
        name = name.strip()
        if name in out:
            raise CliError(f"--param {name} appears more than once")
        # Fraction reads every Unicode digit and PEP 515 underscores; the
        # polynomial parser reads neither
        if not value.isascii():
            raise CliError(f"bad parameter value {value!r}: not ASCII")
        if "_" in value:
            raise CliError(f"bad parameter value {value!r}: has an underscore")
        try:
            out[name] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise CliError(f"bad parameter value {value!r}: {exc}") from exc
    return out


def _ascii_int(text: str) -> int:
    """``int`` for argparse, refusing what the polynomial parser refuses.

    ``int`` also reads every Unicode decimal digit and PEP 515 underscores;
    any other bad value gets the message that ``type=int`` gives.
    """
    if text.isascii() and "_" not in text:
        try:
            return int(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _json_int(value, name: str, least: Optional[int] = None) -> int:
    """A JSON integer, at least ``least``; floats and booleans are rejected."""
    if type(value) is not int or (least is not None and value < least):
        kind = "an integer" if least is None else f"an integer >= {least}"
        raise CliError(f"{name} must be {kind}, got {json.dumps(value)}")
    return value


def _bivector_from_json(data: dict) -> tuple[MultiDerivation, int]:
    try:
        n = _json_int(data["n"], "n", least=1)
        base = _json_int(data.get("base", 1), "base")
        entries = {}
        for item in data.get("entries", []):
            i = _json_int(item["i"], "i") - base
            j = _json_int(item["j"], "j") - base
            if not (0 <= i < n and 0 <= j < n):
                raise CliError(f"entry indices ({item['i']},{item['j']}) out of range")
            if i >= j:
                raise CliError("entries must have i < j")
            if (i, j) in entries:
                raise CliError(f"entry ({item['i']},{item['j']}) appears more than once")
            entries[(i, j)] = parse_poly(item["poly"], n, first_index=base)
        return bivector_from_entries(n, entries), base
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"malformed bivector JSON: {exc}") from exc


def _load_structure(args) -> PoissonStructure:
    params = _parse_params(getattr(args, "param", None))
    sources = [s for s in ("catalog", "file", "json") if getattr(args, s, None)]
    if len(sources) > 1:
        raise CliError("use only one of --catalog, --file and --json")
    if not sources:
        raise CliError("provide a structure with --catalog, --file, or --json")
    if params and sources != ["catalog"]:
        raise CliError("--param needs --catalog")
    if getattr(args, "catalog", None):
        if args.catalog not in CATALOG:
            raise CliError(f"unknown catalog entry {args.catalog!r}")
        return catalog_get(args.catalog, params)
    if getattr(args, "file", None):
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise CliError(f"cannot read {args.file}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CliError(f"malformed JSON in {args.file}: {exc}") from exc
    else:
        try:
            data = json.loads(args.json)
        except json.JSONDecodeError as exc:
            raise CliError(f"malformed JSON: {exc}") from exc
    bivector, base = _bivector_from_json(data)
    return verify(bivector, first_index=base)


def _filtered_structure(args) -> tuple[PoissonStructure, Optional[tuple[int, ...]], tuple[int, ...]]:
    """The structure of ``cohomology`` or ``matrix``, its weights and excluded variables.

    Arities and degrees must be non-negative, ``--k`` excludes ``--kmax`` and
    ``--degree`` excludes ``--cutoff``.
    ``--invariant`` takes the ``--weights`` given, or else the weights of the
    structure's diagonal coordinate.
    """
    for name in ("k", "kmax", "degree", "cutoff"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise CliError(f"--{name} must be >= 0, got {value}")
    for single, span in (("k", "kmax"), ("degree", "cutoff")):
        if getattr(args, span, None) is not None and getattr(args, single) is not None:
            raise CliError(f"--{single} and --{span} cannot be combined")
    if args.weights is not None and not args.invariant:
        raise CliError("--weights needs --invariant")
    S = _load_structure(args)
    try:
        S.homogeneous_degree()
    except ValueError as exc:
        raise CliError(str(exc), MATH_NEGATIVE) from exc
    weights = None
    if args.weights is not None:
        # int reads every Unicode digit and PEP 515 underscores, as in --param
        if not args.weights.isascii():
            raise CliError(f"bad --weights: {args.weights!r} is not ASCII")
        if "_" in args.weights:
            raise CliError(f"bad --weights: {args.weights!r} has an underscore")
        try:
            weights = tuple(int(w) for w in args.weights.split(","))
        except ValueError as exc:
            raise CliError(f"bad --weights: {exc}") from exc
        if len(weights) != S.n:
            raise CliError(f"--weights needs {S.n} integers")
    elif args.invariant:
        weights = diagonal_weights(S)
        if weights is None:
            raise CliError("--invariant needs --weights: the structure has no diagonal "
                           "coordinate")
    return S, weights, (0,) if args.exclude_x0 else ()


# -- subcommands -----------------------------------------------------------------


def _cmd_verify(args) -> int:
    try:
        S = _load_structure(args)
    except IntegrabilityError as exc:
        i, j, k, poly = exc.witness
        f = exc.first_index
        witness = f"({i + f},{j + f},{k + f}): {format_poly(poly, f)}"
        if args.format == "json":
            print(json.dumps({"integrable": False, "witness": witness}, sort_keys=True))
        else:
            print(f"not integrable; witness {witness}")
        return MATH_NEGATIVE
    payload = {
        "integrable": True,
        "criteria": {"jacobi_trisum": True, "exterior_forms": S.n >= 3 or None},
        "n": S.n,
    }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    elif S.n >= 3:
        print(f"integrable (n={S.n}); trisum and form criteria agree")
    else:
        print(f"integrable (n={S.n}); trisum criterion holds (the form criterion needs n >= 3)")
    return 0


def _cmd_bracket(args) -> int:
    S = _load_structure(args)
    f = S.first_index
    try:
        p = parse_poly(args.p, S.n, first_index=f)
        q = parse_poly(args.q, S.n, first_index=f)
    except ParseError as exc:
        raise CliError(f"bad polynomial: {exc}") from exc
    print(format_poly(S.bracket(p, q), f))
    return 0


def _cochain_slots(args: Sequence, k: int, n: int, base: int) -> tuple[int, ...]:
    """Internal slot tuple of one cochain entry; errors quote the labels as typed."""
    labels = [_json_int(a, "each of args") for a in args]
    if len(labels) != k:
        raise ValueError(f"args {labels} have length {len(labels)}, expected k={k}")
    if not all(base <= a < base + n for a in labels):
        raise ValueError(f"args {labels} out of range {base}..{base + n - 1}")
    if any(a >= b for a, b in zip(labels, labels[1:])):
        raise ValueError(f"args {labels} are not strictly increasing")
    return tuple(a - base for a in labels)


def _cochain_from_json(data: dict, n: int, base: int) -> MultiDerivation:
    """Entries that repeat one ``args`` are summed; a ``base`` must be the structure's."""
    try:
        k = _json_int(data["k"], "k")
        typed = _json_int(data.get("base", base), "base")
        if typed != base:
            raise CliError(f"cochain base {typed} differs from the structure's base {base}")
        values = add_into({}, (
            (_cochain_slots(item["args"], k, n, base),
             parse_poly(item["poly"], n, first_index=base))
            for item in data.get("entries", [])
        ))
        return MultiDerivation(n, k, values)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"malformed cochain JSON: {exc}") from exc


def _cochain_to_json(md: MultiDerivation, base: int) -> dict:
    return {
        "k": md.k,
        "base": base,
        "entries": [
            {"args": [i + base for i in idx], "poly": format_poly(poly, base)}
            for idx, poly in sorted(md.values.items())
        ],
    }


def _cmd_delta(args) -> int:
    S = _load_structure(args)
    base = S.first_index
    try:
        data = json.loads(args.cochain)
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed cochain JSON: {exc}") from exc
    phi = _cochain_from_json(data, S.n, base)
    if args.via == "forms":
        result = delta_via_forms(S, phi)
    else:
        result = delta(S, phi)
    print(json.dumps(_cochain_to_json(result, base), sort_keys=True))
    return 0


def _cmd_cohomology(args) -> int:
    S, weights, exclude = _filtered_structure(args)
    if args.k is not None:
        ks = [args.k]
    else:
        ks = list(range(0, (args.kmax if args.kmax is not None else S.n) + 1))
    if args.degree is not None:
        ds = [args.degree]
    else:
        ds = list(range(0, (args.cutoff if args.cutoff is not None else 6) + 1))
    report = cohomology_dims(S, ks, ds, weights=weights, exclude_vars=exclude)
    if args.format == "json":
        print(json.dumps(report.to_json_rows(), sort_keys=True))
    elif args.format == "csv":
        print("k,d,dim_chi,dim_Z,dim_B,dim_H")
        for row in report.rows:
            print(f"{row.k},{row.d},{row.dim_chi},{row.dim_Z},{row.dim_B},{row.dim_H}")
    else:
        print(report.to_text())
    return 0


def _cmd_matrix(args) -> int:
    S, weights, exclude = _filtered_structure(args)
    source = slice_basis(
        S.n, args.k, args.degree,
        weights=weights, exclude_value_vars=exclude, exclude_slot_vars=exclude,
    )
    matrix = delta_matrix(S, source)
    print("row,col,value")
    for row, col, value in matrix.triplets():
        print(f"{row},{col},{value}")
    return 0


def _cmd_catalog(args) -> int:
    if args.param and not args.name:
        raise CliError("--param needs --name")
    if args.name:
        if args.name not in CATALOG:
            raise CliError(f"unknown catalog entry {args.name!r}")
        entry = CATALOG[args.name]
        params = _parse_params(args.param)
        bivector = catalog_bivector(args.name, params)
        base = entry.first_index
        payload = {
            "name": entry.name,
            "source": entry.source,
            "n": bivector.n,
            "base": base,
            "entries": [
                {"i": i + base, "j": j + base, "poly": format_poly(p, base)}
                for (i, j), p in sorted(bivector.values.items())
            ],
        }
        print(json.dumps(payload, sort_keys=True))
        return 0
    for name in sorted(CATALOG):
        entry = CATALOG[name]
        params = ", ".join(
            p.name + (f" ({p.constraint})" if p.constraint else "")
            for p in entry.params
        )
        print(f"{name:14s} [{entry.source}] params: {params or '-'} :: {entry.description}")
    return 0


def _cmd_reproduce(args) -> int:
    if args.id not in CHECKS:
        raise CliError(
            f"unknown reproduction id {args.id!r}; choose from {', '.join(sorted(CHECKS))}"
        )
    report = run_check(args.id)
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, default=str))
    else:
        print(f"reproduction check {report['id']}: {'PASS' if report['pass'] else 'FAIL'}")
        for row in report["rows"]:
            status = "ok " if row["pass"] else "MISMATCH"
            print(f"  [{status}] {row['label']}: expected {row['expected']}, computed {row['computed']}")
        for note in report["notes"]:
            print(f"  note: {note}")
    return 0 if report["pass"] else MATH_NEGATIVE


def _add_structure_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--catalog", help="catalog entry name")
    parser.add_argument("--file", help="path to a bivector JSON file")
    parser.add_argument("--json", help="inline bivector JSON")
    parser.add_argument(
        "--param", action="append", metavar="NAME=VALUE",
        help="catalog parameter binding, repeatable",
    )


def _add_filter_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--invariant", action="store_true",
                        help="restrict to torus-invariant cochains; the weights default to "
                             "those of the diagonal coordinate {X_m, X_i} = w_i X_i")
    parser.add_argument("--weights", help="comma-separated torus weights, one per variable")
    parser.add_argument("--exclude-x0", action="store_true", dest="exclude_x0",
                        help="drop the first variable from slots and values")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polypoisson",
        description="exact Poisson structures and their cohomology on polynomial rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check integrability by both criteria")
    _add_structure_args(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bracket", help="evaluate the bracket on two polynomials")
    _add_structure_args(p)
    p.add_argument("--p", required=True, help="first polynomial")
    p.add_argument("--q", required=True, help="second polynomial")
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("delta", help="apply the coboundary to a cochain")
    _add_structure_args(p)
    p.add_argument("--cochain", required=True, help="cochain JSON")
    p.add_argument("--via", choices=("formula", "forms"), default="formula")
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("cohomology", help="dimension table per arity and degree")
    _add_structure_args(p)
    p.add_argument("--k", type=_ascii_int, help="single cochain arity")
    p.add_argument("--kmax", type=_ascii_int, help="arity range 0..kmax")
    p.add_argument("--degree", type=_ascii_int, help="single polynomial degree")
    p.add_argument("--cutoff", type=_ascii_int, help="degree range 0..cutoff (default 6)")
    _add_filter_args(p)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("matrix", help="CSV triplets of one coboundary matrix")
    _add_structure_args(p)
    p.add_argument("--k", type=_ascii_int, required=True)
    p.add_argument("--degree", type=_ascii_int, required=True)
    _add_filter_args(p)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("catalog", help="list entries or export one as JSON")
    p.add_argument("--name", help="entry to export")
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("reproduce", help="run a published-value reproduction check")
    p.add_argument("--id", required=True, help=", ".join(sorted(CHECKS)))
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except IntegrabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MATH_NEGATIVE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
