"""Serial-versus-parallel reference figures for ``simulate``; not a workload.

    python3 bench/scaling.py
    OPENBLAS_NUM_THREADS=1 python3 bench/scaling.py

Runs the mc-serial command at the default seed, ROUNDS times at
``--jobs 1`` and ``--jobs 2`` in turn, and prints the median wall time of
each, the speed-up and the scaling efficiency T1 / (2 T2). The figures in README.md come from this script.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from stepstress import cli  # noqa: E402

ROUNDS = 6


def main() -> int:
    argv = workloads.make("mc-serial", workloads.DEFAULT_SEED, cli.main).argv
    times = {1: [], 2: []}
    tables = set()
    for _ in range(ROUNDS):
        for jobs in times:
            code, out, err, seconds = workloads.run_command(cli.main, argv + ["--jobs", str(jobs)])
            if code != 0:
                print(err, file=sys.stderr)
                return 1
            tables.add(out)
            times[jobs].append(seconds)
    serial, parallel = (statistics.median(times[j]) for j in (1, 2))
    print(json.dumps({
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "replications": workloads.REPLICATIONS,
        "jobs1_s": [round(t, 3) for t in times[1]],
        "jobs2_s": [round(t, 3) for t in times[2]],
        "median_jobs1_s": serial,
        "median_jobs2_s": parallel,
        "speedup": serial / parallel,
        "efficiency": serial / (2 * parallel),
        "tables_identical": len(tables) == 1,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
