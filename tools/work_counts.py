"""Count the work in one round of each benchmark workload.

    python tools/work_counts.py [--seed S ...] [--workload NAME ...]

Builds each workload of ``bench/workloads.py`` from each seed (default: the
benchmark's own seed), runs its command list once, in-process and against
the ``src/`` tree of the checkout that holds this script, and prints one
line per round:

    <workload> seed=<seed> cell_probabilities=<n> fits=<n> minimize=<n> failed=<n>

``cell_probabilities`` counts the model evaluations that the estimation
layer asks for (the calls of ``stepstress.estimation.cell_probabilities``),
``fits`` the calls of ``fit_proportions``, every fit of the package, and
``minimize`` the L-BFGS-B runs, one per start. ``failed`` counts commands
that exited non-zero. The counts do not depend on the machine or its load,
so two checkouts can be compared round for round where their times would
spread. The workloads' output checks are not run, and nothing under
``bench/`` is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import warnings
from collections import Counter
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


@contextlib.contextmanager
def counting(counts: Counter):
    """Count calls of the entry points named in the module docstring."""
    from stepstress import estimation, montecarlo

    targets = (
        (estimation, "cell_probabilities", "cell_probabilities"),
        (estimation, "fit_proportions", "fits"),
        (montecarlo, "fit_proportions", "fits"),
        (estimation.optimize, "minimize", "minimize"),
    )
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]

    def counted(function, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)

        return wrapper

    for (owner, attr, key), (_, _, function) in zip(targets, originals):
        setattr(owner, attr, counted(function, key))
    try:
        yield
    finally:
        for owner, attr, function in originals:
            setattr(owner, attr, function)


def count_round(name: str, seed: int) -> Counter:
    """The counts of one round of workload ``name`` built from ``seed``."""
    import workloads
    from stepstress.cli import main

    workload = workloads.make(name, seed, main)
    counts = Counter()
    with counting(counts), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _, argv in workload.commands:
            code, *_ = workloads.run_command(main, argv)
            counts["failed"] += code != 0
    return counts


def main(argv: list[str] | None = None) -> None:
    sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT / "bench")]
    import workloads

    parser = argparse.ArgumentParser(description="Count the work in benchmark rounds.")
    parser.add_argument("--seed", type=int, nargs="+", default=[workloads.DEFAULT_SEED])
    parser.add_argument(
        "--workload", nargs="+", choices=workloads.WORKLOADS, default=list(workloads.WORKLOADS)
    )
    args = parser.parse_args(argv)
    for name in args.workload:
        for seed in args.seed:
            counts = count_round(name, seed)
            print(
                f"{name} seed={seed} cell_probabilities={counts['cell_probabilities']} "
                f"fits={counts['fits']} minimize={counts['minimize']} "
                f"failed={counts['failed']}",
                flush=True,
            )


if __name__ == "__main__":
    main()
