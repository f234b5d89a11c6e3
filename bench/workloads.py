"""The benchmark workloads: inputs made from the seed, rounds, and checks.

Each workload is a closed loop with one client. A round runs a fixed list
of CLI commands in-process through ``stepstress.cli.main``, one after the
other; a run repeats whole rounds, so every round attempts the same
operations.

* ``analysis``: on each bundled dataset, ``fit`` at an explicit beta list,
  ``fit`` with the tuned beta, ``ci``, ``test`` of eta = 1, ``tune`` and
  ``influence``.
* ``mc-serial``: ``simulate --scenario clean`` with ``REPLICATIONS``
  replications at ``--jobs 1``. Its check also runs the same command at
  ``--jobs 2``, outside the timed rounds, and compares the tables byte for
  byte.

One operation is one command; it fails when it exits non-zero. A fit that
``simulate`` excludes is reported in its table, not as a failed operation:
which fits fail depends on the seed.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, field

import numpy as np

import checks

DEFAULT_SEED = 20260818

DATASETS = ("solar", "transistor", "led")
# mean lifetime at the use stress under each dataset's beta = 0 fit, in the
# dataset's time unit; mission times are drawn as a fraction of it, which
# keeps the reliability at the mission time well inside (0, 1)
NOMINAL_MEAN = {"solar": 5.47, "transistor": 1.47e7, "led": 1.31e5}
# every bundled fit converges at each of these
BETA_CHOICES = tuple(round(0.05 * k, 2) for k in range(1, 21))

SCENARIO = "clean"
REPLICATIONS = 60
PARALLEL_JOBS = 2


@dataclass(frozen=True)
class DatasetInputs:
    """One dataset's analysis inputs, as the oracle checks need them."""

    name: str
    plan: object
    proportions: np.ndarray
    t: float
    beta_list: tuple
    beta_one: float


@dataclass(frozen=True)
class ScenarioInputs:
    plan: object
    theta: np.ndarray
    n_devices: int


@dataclass
class Round:
    """What one round printed and how long each command took."""

    outputs: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # (command kind, seconds)
    failed: int = 0
    errors: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(s for _, s in self.latencies)


def run_command(main, argv) -> tuple[int, str, str, float]:
    """Run one CLI command in-process; return code, stdout, stderr, seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


class Workload:
    """A fixed list of ``(kind, argv)`` commands, run in order each round."""

    commands: list

    @property
    def ops_per_round(self) -> int:
        return len(self.commands)

    def run_round(self, main) -> Round:
        result = Round()
        for kind, argv in self.commands:
            code, out, err, seconds = run_command(main, argv)
            result.outputs.append(out)
            result.latencies.append((kind, seconds))
            if code != 0:
                result.failed += 1
                result.errors.append(f"{' '.join(argv)} exited {code}: {err.strip()}")
        return result


class Analysis(Workload):
    name = "analysis"

    def __init__(self, seed: int):
        from stepstress.datasets import load_dataset

        rng = np.random.default_rng([seed, 1])
        self.inputs = []
        for index in rng.permutation(len(DATASETS)):
            name = DATASETS[int(index)]
            bundle = load_dataset(name)
            beta_two, beta_one = rng.choice(BETA_CHOICES, size=2)
            self.inputs.append(
                DatasetInputs(
                    name=name,
                    plan=bundle.plan,
                    proportions=bundle.data.proportions,
                    t=float(NOMINAL_MEAN[name] * rng.uniform(0.2, 1.0)),
                    beta_list=(0.0, float(beta_two)),
                    beta_one=float(beta_one),
                )
            )
        self.commands = []
        for d in self.inputs:
            data, t, b = ["--data", d.name], ["--t", repr(d.t)], repr(d.beta_one)
            csv = ["--format", "csv"]
            betas = ",".join(repr(v) for v in d.beta_list)
            self.commands += [
                ("fit", ["fit", *data, "--beta", betas, *t, *csv]),
                ("fit_tuned", ["fit", *data, *t, *csv]),
                ("ci", ["ci", *data, "--beta", b, *t, *csv]),
                ("test", ["test", *data, "--beta", b, "--constraint", "0,0,1,1", *csv]),
                ("tune", ["tune", *data, *csv]),
                ("influence", ["influence", *data, "--beta", b, *csv]),
            ]

    setup_code = (
        "import stepstress.cli\n"
        "from stepstress.datasets import load_dataset\n"
        "for name in ('solar', 'transistor', 'led'):\n"
        "    load_dataset(name)\n"
    )

    def check(self, outputs) -> list[str]:
        problems = []
        for i, d in enumerate(self.inputs):
            fit, fit_tuned, ci, test, tune, influence = outputs[6 * i : 6 * i + 6]
            tune_problems, beta_opt = checks.check_tune(tune, d)
            problems += tune_problems
            problems += checks.check_fit(fit, d)
            problems += checks.check_fit(fit_tuned, d, tuned_beta=beta_opt)
            problems += checks.check_ci(ci, d)
            problems += checks.check_test(test, ci, d)
            problems += checks.check_influence(influence, ci, d)
        return problems


class Simulation(Workload):
    """``simulate --scenario clean`` at ``--jobs 1`` with the benchmark's seed."""

    name = "mc-serial"

    def __init__(self, seed: int, main):
        from stepstress.montecarlo import load_scenario

        spec = load_scenario(SCENARIO)
        self.scenario = ScenarioInputs(
            plan=spec.plan,
            theta=spec.theta_true.as_array(),
            n_devices=spec.n_devices,
        )
        self.main = main
        self.argv = [
            "simulate", "--scenario", SCENARIO, "--seed", str(seed),
            "--replications", str(REPLICATIONS),
        ]
        self.commands = [("simulate", self.argv + ["--jobs", "1"])]

    setup_code = (
        "import stepstress.cli\n"
        "from stepstress.montecarlo import load_scenario\n"
        f"load_scenario({SCENARIO!r})\n"
    )

    def check(self, outputs) -> list[str]:
        """The table's statistics, and byte identity with an untimed ``--jobs 2`` run."""
        (text,) = outputs
        problems = checks.check_simulation(text, self.scenario)
        code, parallel, err, _ = run_command(self.main, self.argv + ["--jobs", str(PARALLEL_JOBS)])
        if code != 0:
            problems.append(f"--jobs {PARALLEL_JOBS} exited {code}: {err.strip()}")
        elif parallel != text:
            problems.append(f"--jobs {PARALLEL_JOBS} table differs from the --jobs 1 table")
        return problems


WORKLOADS = ("analysis", "mc-serial")


def make(name: str, seed: int, main):
    """The named workload, with its inputs made from ``seed``."""
    if name == "analysis":
        return Analysis(seed)
    if name == "mc-serial":
        return Simulation(seed, main)
    raise ValueError(f"unknown workload {name!r}")
