"""One pass of one workload, in a fresh process started by ``run.py``.

Reads a JSON spec on stdin: ``{"workload", "seed", "tiny", "traced",
"spans_path"}``.  Times the set-up (importing polypoisson and building the
inputs) and the ops, then checks every answer, and prints one JSON line:
``setup_s``, ``wall_s``, ``rss_mb``, per-op milliseconds, the calibration
kernel's median time ``calib_s`` (run before and after), ``attempted``,
``failed``, the first problems found and, for a traced pass, the per-layer
metrics.  Spans of a traced pass are written to ``spans_path`` at exit.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from fractions import Fraction
from math import gcd
from pathlib import Path
from time import perf_counter

REFERENCE = Path(__file__).resolve().parent / "reference.json"
MAX_PROBLEMS = 10
CALIBRATION_REPEATS = 3


def calibrate() -> float:
    """Seconds taken by a fixed kernel that does not touch polypoisson.

    It mixes what the program spends its time on: tuple-keyed dict updates,
    Fraction arithmetic and big-integer gcds.  Its time follows the host's
    speed and not the program's code; ``run.py`` scales reported times by it.
    """
    start = perf_counter()
    acc: dict[tuple[int, int, int], Fraction] = {}
    for i in range(5000):
        key = (i % 7, i % 11, i % 13)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 97 + 1, i % 5 + 1)
    x, y = 3, 5
    for i in range(5000):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 128)
        y = (y * 1103515245 + 12345 + i) % (1 << 96)
        gcd(x, y)
    return perf_counter() - start


class Session:
    """Times ops, keeps their answers, and opens tracer roots when traced."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.records: list[tuple] = []  # (label, seconds, answer, error, check)

    def setup(self):
        return self.tracer.root("setup", "setup") if self.tracer else nullcontext()

    def op(self, label: str, fn, check):
        """Run one op; an exception is kept as its answer's failure."""
        op_id = len(self.records)
        answer = error = None
        with self.tracer.root("op", op_id) if self.tracer else nullcontext():
            start = perf_counter()
            try:
                answer = fn()
            except Exception:
                error = traceback.format_exc(limit=-2)
            elapsed = perf_counter() - start
        self.records.append((label, elapsed, answer, error, check))
        return answer

    def problems(self) -> list[str]:
        """One line per failed op: raised, or its check found problems."""
        out = []
        for label, _, answer, error, check in self.records:
            if error is None:
                try:
                    found = check(answer)
                except Exception:
                    found = ["check raised: " + traceback.format_exc(limit=-2)]
            else:
                found = ["raised: " + error]
            if found:
                out.append(f"{label}: " + "; ".join(found))
        return out


def run_pass(workload: str, seed: int, tiny: bool, reference: dict, tracer=None,
             t0: float | None = None) -> dict:
    """Set up, run and check one pass; ``t0`` is when set-up began."""
    import workloads

    if t0 is None:
        t0 = perf_counter()
    session = Session(tracer)
    run = workloads.WORKLOADS[workload](session, random.Random(seed), tiny, reference)
    setup_s = perf_counter() - t0
    start = perf_counter()
    run()
    wall_s = perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = session.problems()
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "rss_mb": rss_mb,
        "op_ms": {label: seconds * 1e3 for label, seconds, *_ in session.records},
        "attempted": len(session.records),
        "failed": len(problems),
        "problems": problems[:MAX_PROBLEMS],
    }


def main() -> int:
    spec = json.loads(sys.stdin.read())
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    calibration = [calibrate() for _ in range(CALIBRATION_REPEATS)]
    t0 = perf_counter()
    import polypoisson  # noqa: F401  (set-up includes the import)

    tracer = None
    if spec["traced"]:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    record = run_pass(spec["workload"], spec["seed"], spec["tiny"], reference, tracer, t0)
    calibration += [calibrate() for _ in range(CALIBRATION_REPEATS)]
    record["calib_s"] = statistics.median(calibration)
    if tracer is not None:
        record["layers"] = layer_metrics(tracer)
        record["absent"] = tracer.absent
        tracer.write(spec["spans_path"], {
            "workload": spec["workload"],
            "seed": spec["seed"],
            "ops": list(record["op_ms"]),
        })
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
