"""Fingerprint the CLI's output: one line of digests per command.

Runs a fixed list of ``stepstress`` commands in-process, against the
``src/`` tree of the checkout that holds this script, and prints one line
per command:

    <exit code> <stdout sha256> <stderr sha256> <command>

followed by the command's stderr, if any, indented by four spaces, so a
moved warning can be read rather than only detected.

Before stderr is hashed, the checkout's path becomes ``<checkout>`` and
the line numbers after ``.py:`` in warning locations are dropped. So two
checkouts print the same lines unless a warning changed its file or text,
not when an edit merely shifted the line it is raised on. To check
that a change moves no output byte, run the script in a checkout of each
side and compare:

    python tools/cli_digest.py > before.txt    # in the old checkout
    python tools/cli_digest.py > after.txt     # in the new checkout
    diff before.txt after.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import sys
import warnings
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(CHECKOUT / "src"))

from stepstress.cli import main  # noqa: E402

DATASETS = ("solar", "transistor", "led")
# a mission time inside each dataset's lifetime range, for the reliability column
MISSION_TIME = {"solar": "3", "transistor": "5e6", "led": "6e4"}
FORMATS = ("pretty", "csv", "json")
SCENARIOS = ("clean", "contaminated_a0", "contaminated_a1", "contaminated_eta", "power_a1")
REPLICATIONS = "40"


def commands() -> list[list[str]]:
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
    return out


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and normalized stderr of one command."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        # fresh filters make every command print its warnings, whatever ran before
        warnings.simplefilter("default")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    stderr = err.getvalue().replace(str(CHECKOUT), "<checkout>")
    return code, out.getvalue(), re.sub(r"(\.py):\d+:", r"\1:", stderr)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


if __name__ == "__main__":
    for argv in commands():
        code, stdout, stderr = run(argv)
        print(code, _sha(stdout), _sha(stderr), " ".join(argv))
        print("".join(f"    {line}\n" for line in stderr.splitlines()), end="", flush=True)
