"""Self-test of the benchmark: tiny runs of every workload, and a corrupted reference.

    PYTHONPATH=src python3 -m pytest -q bench/selftest.py

Not collected by the repository's test suite (the file name does not match
``test_*.py``); it starts a few short benchmark runs as subprocesses.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402

WORKLOADS = run.WORKLOADS


def _bench_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    spec = _bench_json()
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    result = _run(workload, seed=1, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["p1-classes", "screen"])
def test_other_seed_passes(workload):
    result = _run(workload, seed=987, trace=0)
    assert result["correct"] and result["failed"] == 0


def _reference() -> dict:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload, corrupt", [
    ("p2-table", lambda ref: ref["P2"]["3"][5].update(dim_Z=99)),
    ("rigid-h2", lambda ref: ref["rigid"]["5"][0].update(dim_B=3)),
    ("p1-classes", lambda ref: next(r for r in ref["P1"] if r["k"] == 2 and r["d"] == 1)
     .update(dim_H=2)),
    ("screen", lambda ref: ref["screen"]["fixed"]["deformed-mu"].update({"9": True})),
])
def test_corrupted_reference_fails_ops(workload, corrupt):
    reference = _reference()
    assert worker.run_pass(workload, 1, True, reference)["failed"] == 0
    corrupt(reference)
    record = worker.run_pass(workload, 1, True, reference)
    assert record["failed"] > 0 and record["problems"]


def test_missing_layer_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer_mod, "LAYERS", tracer_mod.LAYERS + (
        tracer_mod.Layer("cohomology.gone", "polypoisson.cohomology", "no_such_function"),
    ))
    t = tracer_mod.Tracer()
    try:
        assert t.install() == ["cohomology.gone"]
        record = worker.run_pass("p2-table", 1, True, _reference(), t)
    finally:
        t.uninstall()
    assert record["failed"] == 0
    metrics = tracer_mod.layer_metrics(t)
    assert metrics["cohomology.delta_matrix.calls"][1] > 0
    assert metrics["poisson.verify.calls"][1] == 1
    from polypoisson import cohomology, linalg, poisson

    assert cohomology.verify is poisson.verify and "traced" not in linalg.rank.__qualname__
