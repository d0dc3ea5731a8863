"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload p2-table --seed 1 --seconds 28 --trace 0

Run from the repository root.  Every pass is a fresh single-threaded process
(``worker.py``) that imports polypoisson from ``src``, builds its inputs, runs
the workload's ops and checks every answer.  Passes repeat until ``--seconds``
have gone by (at least ``MIN_PASSES``); each metric is the median over passes.

The host this runs on may run faster or slower from one minute to the next.
Each pass therefore also times a fixed calibration kernel (``calib_s``), and
every reported time is scaled by ``CALIBRATION_REF_S / calib_s``: it is the
time the pass would have taken on a host where the kernel takes
``CALIBRATION_REF_S``.  The unadjusted medians are printed above the result.

With ``--trace 0`` the result holds the end-to-end metrics.  With ``--trace 1``
traced and untraced passes alternate: the traced ones give the per-layer
metrics, and the two kinds together give the tracing overhead.  The last line
of standard output is the JSON result.  ``--tiny`` shrinks every workload to a
few seconds of work for the benchmark's self-test.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("p2-table", "rigid-h2", "p1-classes", "screen")
MIN_PASSES = 3
TIME_LIMIT_S = 170  # the whole run, so that it ends inside three minutes
CALIBRATION_REF_S = 0.020  # the host speed that reported times refer to


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (``statistics`` 'inclusive')."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    low = int(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


def adjusted(passes: list[dict], key: str) -> float:
    """Median over passes of a time scaled to the reference host speed."""
    return statistics.median(r[key] * CALIBRATION_REF_S / r["calib_s"] for r in passes)


def end_to_end(passes: list[dict]) -> dict[str, tuple[str, float]]:
    """End-to-end metrics: medians over untraced passes, times host-adjusted.

    Op latency is each op's median over passes, then percentiles over the ops.
    """
    per_op: dict[str, list[float]] = {}
    for record in passes:
        scale = CALIBRATION_REF_S / record["calib_s"]
        for label, ms in record["op_ms"].items():
            per_op.setdefault(label, []).append(ms * scale)
    op_ms = [statistics.median(v) for v in per_op.values()]
    return {
        "setup_s": ("s", adjusted(passes, "setup_s")),
        "wall_s": ("s", adjusted(passes, "wall_s")),
        "peak_rss_mb": ("MiB", statistics.median(r["rss_mb"] for r in passes)),
        "op_p50_ms": ("ms", percentile(op_ms, 0.5)),
        "op_p90_ms": ("ms", percentile(op_ms, 0.9)),
    }


def raw_times(passes: list[dict]) -> str:
    """The unadjusted medians, for the human-readable lines."""
    return ", ".join(
        f"{key} {statistics.median(r[key] for r in passes):.6g} s"
        for key in ("setup_s", "wall_s", "calib_s")
    )


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, tuple[str, float]]:
    out = {}
    for name, (unit, _) in traced[0]["layers"].items():
        out[name] = (unit, statistics.median(r["layers"][name][1] for r in traced))
    overhead = adjusted(traced, "wall_s") / adjusted(untraced, "wall_s") - 1
    out["trace.overhead_frac"] = ("ratio", overhead)
    return out


def run_child(spec: dict, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(spec), capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=max(1.0, deadline - perf_counter()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    started = perf_counter()
    deadline = started + TIME_LIMIT_S
    if not (ROOT / "src" / "polypoisson" / "__init__.py").is_file():
        print(f"error: no polypoisson sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # compile once up front, so the first pass's set-up is not a compile
    compileall.compile_dir(ROOT / "src", quiet=2)
    compileall.compile_dir(HERE, quiet=2, maxlevels=0)
    spans_dir = HERE / "out"
    spans_dir.mkdir(exist_ok=True)
    spec = {
        "workload": args.workload, "seed": args.seed, "tiny": args.tiny,
        "spans_path": str(spans_dir / f"{args.workload}-seed{args.seed}.spans.json"),
    }

    traced: list[dict] = []
    untraced: list[dict] = []
    try:
        while True:
            is_traced = bool(args.trace) and len(untraced) > len(traced)
            record = run_child(dict(spec, traced=is_traced), deadline)
            (traced if is_traced else untraced).append(record)
            enough = len(untraced) >= MIN_PASSES and (not args.trace or len(traced) >= MIN_PASSES)
            if enough and perf_counter() - started >= args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = traced + untraced
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    metrics = per_layer(traced, untraced) if args.trace else end_to_end(untraced)
    print(f"{args.workload}: {len(untraced)} untraced, {len(traced)} traced passes, "
          f"{attempted} ops, {failed} failed")
    for record in passes:
        for line in record["problems"]:
            print(f"FAILED {line}")
    print(f"  unadjusted medians: {raw_times(untraced)}")
    if traced and traced[-1]["absent"]:
        print("absent layers (reported as 0): " + ", ".join(traced[-1]["absent"]))
    for name, (unit, value) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
