"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload analysis --seed 1 --seconds 35 --trace 0

Run from the repository root; the package is imported from ``src/``. The
workload repeats whole rounds until ``--seconds`` have passed (at least
two rounds), checks every output, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, listed in
BENCHMARK.json. With ``--trace 1`` the run alternates untraced and traced
rounds after a warm-up round, checks that all of them print the same
bytes, and reports the per-layer metrics. The exit code is 0 when every
check passed, 1 when one failed and 2 when the program's source is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
SUBPROCESS_TIMEOUT = 60
MIN_ROUNDS = 2
IMPORT_MODULES = ("special_math", "estimation", "montecarlo", "cli")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(code: str) -> float:
    """Median wall time from a fresh interpreter to ready, in seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code],
            env=_child_env(), cwd=ROOT, check=True, timeout=SUBPROCESS_TIMEOUT,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure_imports() -> dict:
    """Cumulative import times of selected modules, from ``-X importtime``."""
    samples = {name: [] for name in IMPORT_MODULES}
    pattern = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s+stepstress\.(\w+)$")
    for _ in range(IMPORTTIME_REPEATS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import stepstress.cli"],
            env=_child_env(), cwd=ROOT, check=True, timeout=SUBPROCESS_TIMEOUT,
            capture_output=True, text=True,
        )
        for line in done.stderr.splitlines():
            match = pattern.search(line.strip())
            if match and match.group(2) in samples:
                samples[match.group(2)].append(int(match.group(1)) / 1e3)
    return {
        f"import.{name}.ms": statistics.median(values) if values else 0.0
        for name, values in samples.items()
    }


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def thread_count() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def run_rounds(workload, main, seconds: float):
    """Whole rounds until ``seconds`` have passed, at least MIN_ROUNDS of them."""
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds.append(workload.run_round(main))
    return rounds


def check_outputs(workload, rounds) -> list[str]:
    """Check the first round's outputs; every other round must print the same bytes."""
    reference = rounds[0]
    problems = []
    for i, round_ in enumerate(rounds):
        if round_.outputs != reference.outputs:
            problems.append(f"round {i} printed different output than the first round")
    if reference.failed:
        problems += reference.errors
        # a failed command's output cannot be checked
        return problems
    try:
        problems += workload.check(reference.outputs)
    except (ValueError, IndexError, KeyError) as exc:
        problems.append(f"unparseable output: {type(exc).__name__}: {exc}")
    return problems


def end_to_end(rounds, cpu) -> dict:
    return {
        "round_s": statistics.median(r.seconds for r in rounds),
        "cpu_s_per_round": cpu / len(rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def metric_units(kind: str) -> dict:
    """Metric names and units, in the order BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _median_kind(rounds, kind) -> float:
    values = [s for r in rounds for k, s in r.latencies if k == kind]
    return statistics.median(values) * 1e3 if values else 0.0


def traced(workload, main, seconds, seed):
    """A warm-up round, then untraced and traced rounds in turn.

    Returns all rounds and the per-layer metrics. Per-layer counts and
    times come from the traced rounds; the untraced ones give the tracing
    overhead, the process figures and the command latencies. The caller's
    output check compares every round with the first, untraced one byte for
    byte.
    """
    import tracing

    tracer = tracing.Tracer()
    # the first round of a process pays one-off costs; keep it out of the timings
    warm_up = workload.run_round(main)
    plain, traced_rounds = [], []
    cpu = 0.0
    start = time.perf_counter()
    while not traced_rounds or time.perf_counter() - start < seconds:
        cpu0 = cpu_seconds()
        plain.append(workload.run_round(main))
        cpu += cpu_seconds() - cpu0
        threads = thread_count()
        tracer.install()
        try:
            traced_rounds.append(workload.run_round(tracer.wrap(main, "cli.main")))
        finally:
            tracer.uninstall()
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}.jsonl")

    metrics = tracing.per_layer(tracer.spans, workload.ops_per_round * len(traced_rounds))
    metrics.update(measure_imports())
    plain_s = statistics.median(r.seconds for r in plain)
    traced_s = statistics.median(r.seconds for r in traced_rounds)
    metrics.update({
        "process.cores_used": cpu / sum(r.seconds for r in plain),
        "process.threads": float(threads),
        "cli.fit_cmd.ms": _median_kind(plain, "fit"),
        "cli.tune_cmd.ms": _median_kind(plain, "tune"),
        "trace.overhead_pct": (traced_s / plain_s - 1.0) * 100.0,
    })
    return [warm_up] + plain + traced_rounds, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stepstress" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'stepstress'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stepstress.cli

    if Path(stepstress.cli.__file__).resolve().parent != SRC / "stepstress":
        print(f"bench: imported {stepstress.cli.__file__}, not the checkout", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    main_fn = stepstress.cli.main
    workload = workloads.make(args.workload, seed, main_fn)

    if args.trace:
        rounds, metrics = traced(workload, main_fn, args.seconds, seed)
    else:
        cpu0 = cpu_seconds()
        rounds = run_rounds(workload, main_fn, args.seconds)
        metrics = end_to_end(rounds, cpu_seconds() - cpu0)
    problems = check_outputs(workload, rounds)
    if not args.trace:
        metrics["setup_s"] = measure_setup(workload.setup_code)

    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    print(json.dumps({
        "correct": not problems,
        "attempted": workload.ops_per_round * len(rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
