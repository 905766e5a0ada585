"""Recompute the Monte Carlo reference volumes pinned in workloads.py.

Each reference is the same estimator the benchmark step runs, at a
higher sample count and on a seed no benchmark run is expected to use.
The benchmark accepts a step's estimate when it lies within
workloads.MC_SIGMAS combined standard errors of its reference.

Run from the repository root (takes a few minutes on one core):

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from kakeyalab.heisenberg import heisenberg_neighborhood_volume  # noqa: E402
from kakeyalab.tubelab import (  # noqa: E402
    generate_family,
    parallel_lines_family,
    union_volume,
)

REFERENCE_SEED = 1 << 20


def main() -> int:
    jobs = {
        "bush": (16_000_000, lambda n: union_volume(
            generate_family(2.0 ** -9, 2, "bush"), samples=n, seed=REFERENCE_SEED)),
        "slab": (4_000_000, lambda n: union_volume(
            parallel_lines_family(1.0 / 32), samples=n, seed=REFERENCE_SEED)),
        "heisenberg": (160_000_000, lambda n: heisenberg_neighborhood_volume(
            2.0 ** -7, n, seed=REFERENCE_SEED)),
    }
    out = {}
    for name, (samples, run) in jobs.items():
        started = time.perf_counter()
        est = run(samples)
        out[name] = {"value": est.value, "std_error": est.std_error,
                     "samples": samples, "seed": REFERENCE_SEED}
        print(f"{name}: {est.value!r} +- {est.std_error!r} "
              f"({samples} samples, {time.perf_counter() - started:.1f} s)",
              file=sys.stderr)
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
