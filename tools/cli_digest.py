"""Fingerprint the CLI's output: one line of digests per command.

Runs a fixed list of ``stepstress`` commands in-process, against the
``src/`` tree of the checkout that holds this script, and prints one line
per command:

    <exit code> <stdout sha256> <stderr sha256> <command>

followed by the command's stderr, if any, indented by four spaces, so a
moved warning can be read rather than only detected.

Besides the analyses of the bundled data, the list runs error paths on
malformed dataset and scenario files, written to a temporary directory,
one ``--output`` command, whose file takes the place of stdout in the
digest, and ``--help`` for the program and each subcommand, wrapped at the
80 columns ``COLUMNS`` is set to, whatever the terminal. A command that
raises an exception ``stepstress.cli.main`` does not map, which the
interpreter would print as a traceback with exit code 1, is recorded as
exit code 1 with one ``uncaught <type>: <message>`` line on stderr, so
that the remaining commands still run. Before stderr is hashed, the
checkout's path becomes ``<checkout>``, the temporary directory becomes
``<tmp>``, and the line numbers after ``.py:`` in warning locations are
dropped. So two checkouts print the same lines unless a warning changed
its file or text, not when an edit merely shifted the line it is raised
on. To check that a change moves no output byte, run the script in a
checkout of each side and compare:

    python tools/cli_digest.py > before.txt    # in the old checkout
    python tools/cli_digest.py > after.txt     # in the new checkout
    diff before.txt after.txt

With ``--values DIR`` the script also saves each command's stdout as
``DIR/NNN.out`` and lists every command with its exit code, stdout file
and normalized stderr in ``DIR/index.json``. ``tools/output_diff.py``
compares two such directories number by number, for changes that move
a digest but should be reviewed by size:

    python tools/cli_digest.py --values before/   # in the old checkout
    python tools/cli_digest.py --values after/    # in the new checkout
    python tools/output_diff.py before/ after/
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
import warnings
from importlib import resources
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent

DATASETS = ("solar", "transistor", "led")
# a mission time inside each dataset's lifetime range, for the reliability column
MISSION_TIME = {"solar": "3", "transistor": "5e6", "led": "6e4"}
FORMATS = ("pretty", "csv", "json")
SCENARIOS = ("clean", "contaminated_a0", "contaminated_a1", "contaminated_eta", "power_a1")
SUBCOMMANDS = ("fit", "ci", "test", "tune", "influence", "simulate", "datasets")
REPLICATIONS = "40"


def _error_inputs(tmp: Path) -> dict[str, str]:
    """Paths of malformed dataset and scenario files written under ``tmp``."""
    data = resources.files("stepstress").joinpath("data")
    solar = data.joinpath("solar.txt").read_text(encoding="utf-8")
    clean = data.joinpath("scenarios", "clean.ini").read_text(encoding="utf-8")
    shifted = data.joinpath("scenarios", "contaminated_a0.ini").read_text(encoding="utf-8")
    texts = {
        "bad_correction.txt": solar.replace("10.14 -> 0.140 |", "10.14 -> |"),
        "missing_key.txt": solar.replace("# use_stress: 293\n", ""),
        "no_replications.ini": clean.replace("replications = 500", "replications = 0"),
        "not_ini.ini": "not an ini at all\n",
        "negative_seed.ini": clean.replace("seed = 20260818", "seed = -1"),
        "cell_99.ini": shifted.replace("cell = 3", "cell = 99"),
        "t_zero.ini": clean.replace("t = 40", "t = 0"),
        "x0_inf.ini": clean.replace("x0 = 20", "x0 = inf"),
        "null_slope_nan.ini": clean.replace("null_slope = -0.05", "null_slope = nan"),
    }
    for name, text in texts.items():
        (tmp / name).write_text(text, encoding="utf-8")
    return {name: str(tmp / name) for name in texts}


def commands(tmp: Path) -> list[list[str]]:
    out = []
    for name in DATASETS:
        data = ["--data", name]
        for fmt in FORMATS:
            form = ["--format", fmt]
            out += [
                ["fit", *data, "--beta", "0,0.5,1", "--t", MISSION_TIME[name], *form],
                ["ci", *data, "--beta", "0.5", "--t", MISSION_TIME[name], *form],
                ["test", *data, "--beta", "0.5", "--constraint", "0,0,1,1", *form],
                ["influence", *data, "--beta", "0.5", "--constraint", "0,0,1,1", *form],
                ["tune", *data, *form],
            ]
    for scenario in SCENARIOS:
        for jobs in ("1", "2"):
            out.append(
                ["simulate", "--scenario", scenario,
                 "--replications", REPLICATIONS, "--jobs", jobs]
            )
    out.append(
        ["simulate", "--scenario", "contaminated_a1", "--replications", "10",
         "--sweep", "a1=-0.02,0,0.02", "--jobs", "2"]
    )
    out += [["datasets"], ["datasets", "--format", "json"]]
    files = _error_inputs(tmp)
    out += [
        ["fit", "--data", "nope", "--beta", "0"],
        ["fit", "--data", files["bad_correction.txt"], "--beta", "0"],
        ["fit", "--data", files["missing_key.txt"], "--beta", "0"],
        ["simulate", "--scenario", files["no_replications.ini"]],
        ["simulate", "--scenario", files["not_ini.ini"]],
        ["ci", "--data", "solar", "--t", "nan"],
        ["test", "--data", "solar", "--constraint", "0,1,0,nan"],
        ["fit", "--data", "solar", "--beta", "0,0.5,1", "--t", MISSION_TIME["solar"],
         "--output", str(tmp / "fit.txt")],
        # constraints whose C Sigma C' or statistic overflows a double
        ["test", "--data", "solar", "--constraint", "0,0,1e155,1e155"],
        ["test", "--data", "solar", "--constraint", "0,0,1,1e300"],
        ["test", "--data", "solar", "--constraint", "0,0,1,1e300", "--format", "json"],
        ["influence", "--data", "solar", "--constraint", "0,0,1e155,1e155"],
        ["simulate", "--scenario", "clean", "--seed", "-1"],
        ["simulate", "--scenario", files["negative_seed.ini"]],
        ["--help"],
        *([sub, "--help"] for sub in SUBCOMMANDS),
        ["simulate", "--scenario", "nosuch"],
        *(["simulate", "--scenario", files[name]]
          for name in ("cell_99.ini", "t_zero.ini", "x0_inf.ini", "null_slope_nan.ini")),
        # a p-value far in the tail, and JSON with cells left empty by a missing --t
        ["test", "--data", "solar", "--beta", "0", "--constraint", "1,0,0,0",
         "--format", "csv"],
        ["fit", "--data", "solar", "--beta", "0", "--format", "json"],
    ]
    return out


def run(argv: list[str], tmp: Path) -> tuple[int, str, str]:
    """Exit code, stdout and normalized stderr of one command.

    The file of an ``--output`` command is appended to its stdout.
    """
    from stepstress import cli  # main puts this checkout's src/ first on sys.path

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        # fresh filters make every command print its warnings, whatever ran before
        warnings.simplefilter("default")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - unmapped: the interpreter exits 1
                print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
                code = 1
    stdout = out.getvalue()
    if "--output" in argv:
        target = Path(argv[argv.index("--output") + 1])
        stdout += target.read_text(encoding="utf-8") if target.is_file() else ""
    stderr = err.getvalue().replace(str(CHECKOUT), "<checkout>")
    stderr = stderr.replace(str(tmp), "<tmp>")
    return code, stdout, re.sub(r"(\.py):\d+:", r"\1:", stderr)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv: list[str] | None = None) -> None:
    os.environ["COLUMNS"] = "80"  # argparse wraps help text at this width
    sys.path.insert(0, str(CHECKOUT / "src"))
    parser = argparse.ArgumentParser(description="Fingerprint the CLI's output.")
    parser.add_argument(
        "--values", type=Path, metavar="DIR",
        help="also save each command's stdout, exit code and stderr under DIR",
    )
    values = parser.parse_args(argv).values
    index = []
    if values is not None:
        values.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        tmp = Path(scratch)
        for number, args in enumerate(commands(tmp)):
            code, stdout, stderr = run(args, tmp)
            command = " ".join(args).replace(scratch, "<tmp>")
            print(code, _sha(stdout), _sha(stderr), command)
            print("".join(f"    {line}\n" for line in stderr.splitlines()), end="", flush=True)
            if values is not None:
                name = f"{number:03d}.out"
                (values / name).write_text(stdout, encoding="utf-8")
                index.append(
                    {"command": command, "exit": code, "stdout": name, "stderr": stderr}
                )
    if values is not None:
        (values / "index.json").write_text(json.dumps(index, indent=1), encoding="utf-8")


if __name__ == "__main__":
    main()
