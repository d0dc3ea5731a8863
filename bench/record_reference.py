"""Recompute bench/reference.json, the answers the benchmark checks against.

    PYTHONPATH=src python3 bench/record_reference.py

The committed file was recorded at the commit that added the benchmark.  Run
this only when a change to the program's answers is intended, and say so in
the change.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from polypoisson import catalog, cohomology, reproduce

import workloads

OUT = Path(__file__).resolve().parent / "reference.json"


def _verdict(name: str, params: dict) -> bool:
    return workloads.screen_op(name, params, catalog.CATALOG[name].first_index)[0]


def main() -> None:
    p2 = {
        str(n): cohomology.cohomology_dims(
            catalog.catalog_get("P2", {"n": n}), workloads.P2_KS, workloads.P2_DS
        ).to_json_rows()
        for n in (3, 7)
    }
    rigid = {}
    for n, ds in ((5, (1,)), (10, (1, 3))):
        S = catalog.catalog_get("rigid", {"n": n})
        rigid[str(n)] = cohomology.cohomology_dims(
            S, [2], ds, weights=tuple(range(n + 1)), exclude_vars=(0,)
        ).to_json_rows()
    p1 = cohomology.cohomology_dims(
        catalog.catalog_get("P1"), workloads.P1_KS, range(13)
    ).to_json_rows()

    rng = random.Random(0)
    classified = {}
    for name in reproduce.CLASSIFIED_ENTRIES:
        found = {_verdict(name, reproduce.sample_params(name, rng)) for _ in range(20)}
        if len(found) != 1:
            raise SystemExit(f"{name}: verdict depends on the parameters")
        classified[name] = found.pop()
    fixed = {}
    for table in (workloads.SCREEN_FIXED, workloads.SCREEN_FIXED_TINY):
        for name, ns in table.items():
            for n in ns:
                fixed.setdefault(name, {})[str(n)] = _verdict(name, {"n": n})

    reference = {
        "P2": p2,
        "rigid": rigid,
        "P1": p1,
        "screen": {"classified": classified, "fixed": fixed},
    }
    OUT.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
