"""Compare the CLI outputs saved by two ``cli_digest.py --values`` runs.

    python tools/output_diff.py BEFORE AFTER [--rtol R]

BEFORE and AFTER are directories written by ``tools/cli_digest.py
--values``. For each command the script prints "identical", or what
moved: a changed exit code, the stderr lines that went or came, every
changed ``n_used`` or ``n_failed`` entry, text that changed in more than
its numbers, and for every column with a moved number its largest
absolute and relative difference. A column is a table column of the CSV,
JSON or aligned ("pretty") output, a ``# key: value`` header line, or, for
free text, the line's position. Relative differences are
|a - b| / max(|a|, |b|).

The exit code is 1 when a relative difference exceeds ``--rtol``
(default 0, so any moved number) or when anything other than a number
moved: an exit code, a stderr line, an ``n_used`` or ``n_failed`` count,
text, the table's shape, or the list of commands. Otherwise it is 0.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

COUNT_COLUMNS = ("n_used", "n_failed")
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")
_NAME = re.compile(r"^[A-Za-z_][\w.()=]*$")
_RULE = re.compile(r"^-+(?:  +-+)*\s*$")


def load(directory) -> dict[str, dict]:
    """Command -> {"exit", "stdout", "stderr"} from a ``--values`` directory."""
    directory = Path(directory)
    index = json.loads((directory / "index.json").read_text(encoding="utf-8"))
    return {
        entry["command"]: {
            "exit": entry["exit"],
            "stdout": (directory / entry["stdout"]).read_text(encoding="utf-8"),
            "stderr": entry["stderr"],
        }
        for entry in index
    }


def _text(value) -> str:
    return value if isinstance(value, str) else json.dumps(value)


def _flatten(value, column: str, row: str, out: dict) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{column}.{key}" if column else str(key), row, out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, column, f"{row}[{i}]", out)
    else:
        out[(column, row)] = _text(value)


def cells(stdout: str) -> dict[tuple[str, str], str]:
    """Map (column, row) -> text of every cell of one command's stdout.

    A JSON document is read by its ``columns`` and ``rows``; other output
    line by line: ``# key: value`` headers, CSV tables under a header of
    names, aligned tables under a header and a rule of dashes, and free
    text keyed by line number.
    """
    out: dict = {}
    try:
        document = json.loads(stdout)
    except ValueError:
        document = None
    if isinstance(document, dict):
        columns = document.get("columns")
        for key, value in document.items():
            if key == "rows" and isinstance(columns, list):
                for i, row in enumerate(value):
                    for name, item in zip(columns, row):
                        out[(str(name), f"row {i + 1}")] = _text(item)
            else:
                _flatten(value, str(key), "", out)
        return out
    lines = stdout.splitlines()
    header, sep, row = None, None, 0
    for number, line in enumerate(lines):
        if header is not None:
            fields = line.split(sep)
            if sep is None and _RULE.match(line):
                continue
            if line.strip() and len(fields) == len(header):
                row += 1
                for name, value in zip(header, fields):
                    out[(name, f"row {row}")] = value
                continue
            header = None
        following = lines[number + 1] if number + 1 < len(lines) else ""
        if line.startswith("# ") and ": " in line:
            key, value = line[2:].split(": ", 1)
            out[(key, "header")] = value
        elif "," in line and all(_NAME.match(f) for f in line.split(",")):
            header, sep, row = line.split(","), ",", 0
            out[("<columns>", f"line {number + 1}")] = line
        elif _RULE.match(following) and line.split() and all(
            _NAME.match(f) for f in line.split()
        ):
            header, sep, row = line.split(), None, 0
            out[("<columns>", f"line {number + 1}")] = " ".join(header)
        else:
            out[(f"text line {number + 1}", "")] = line
    return out


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _difference(a: float, b: float) -> tuple[float, float]:
    """(absolute, relative) difference of two numbers; NaN equals NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf, math.inf
    gap = abs(a - b)
    return gap, gap / max(abs(a), abs(b))


class Report:
    """What moved in one command's output."""

    def __init__(self):
        self.notes = []
        self.columns = {}  # column -> [max abs, max rel, moved cells]
        self.strict = False  # something other than a number moved

    def note(self, text: str) -> None:
        self.notes.append(text)
        self.strict = True

    def number(self, column: str, a: float, b: float) -> None:
        gap, rel = _difference(a, b)
        if gap == 0.0:
            return
        entry = self.columns.setdefault(column, [0.0, 0.0, 0])
        entry[:] = max(entry[0], gap), max(entry[1], rel), entry[2] + 1

    @property
    def max_rel(self) -> float:
        return max((entry[1] for entry in self.columns.values()), default=0.0)

    def lines(self) -> list[str]:
        if not self.notes and not self.columns:
            return ["identical"]
        out = list(self.notes)
        for column, (gap, rel, count) in sorted(self.columns.items()):
            out.append(
                f"column {column}: max abs {gap:.3g}, max rel {rel:.3g} ({count} cells)"
            )
        return out


def compare_cell(report: Report, column: str, row: str, a: str, b: str) -> None:
    """Record a differing cell: its numbers by size, anything else as a note.

    A count, text beyond its numbers, and a change of format alone (such
    as 0.50 -> 0.5) are notes.
    """
    if a == b:
        return
    x, y = _number(a), _number(b)
    if x is not None and y is not None:
        pairs = [(x, y)]
    elif _NUMBER.sub("#", a) == _NUMBER.sub("#", b):
        numbers = zip(_NUMBER.findall(a), _NUMBER.findall(b))
        pairs = [(float(p), float(q)) for p, q in numbers]
    else:
        pairs = []
    if column in COUNT_COLUMNS or not any(_difference(p, q)[0] for p, q in pairs):
        report.note(f"{column} {row}".strip() + f": {a!r} -> {b!r}")
    for p, q in pairs:
        report.number(column, p, q)


def compare(before: dict, after: dict) -> Report:
    """What moved between two outputs of one command."""
    report = Report()
    if before["exit"] != after["exit"]:
        report.note(f"exit code {before['exit']} -> {after['exit']}")
    old, new = before["stderr"].splitlines(), after["stderr"].splitlines()
    if old != new:
        report.notes += [f"stderr - {line}" for line in old if line not in new]
        report.notes += [f"stderr + {line}" for line in new if line not in old]
        report.strict = True
    a, b = cells(before["stdout"]), cells(after["stdout"])
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            side = "after" if key in b else "before"
            report.note(f"shape: {' '.join(key)} only in {side}")
        else:
            compare_cell(report, *key, a[key], b[key])
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest relative difference that passes (default 0)")
    args = parser.parse_args(argv)
    before, after = load(args.before), load(args.after)
    failed = False
    moved = 0
    for command in before.keys() - after.keys():
        print(f"only in before: {command}")
        failed = True
    for command in after.keys() - before.keys():
        print(f"only in after: {command}")
        failed = True
    for command in [c for c in before if c in after]:
        report = compare(before[command], after[command])
        lines = report.lines()
        moved += lines != ["identical"]
        print(command)
        print("".join(f"    {line}\n" for line in lines), end="")
        failed |= report.strict or report.max_rel > args.rtol
    shared = sum(command in after for command in before)
    print(f"{shared} commands compared, {moved} moved, rtol {args.rtol:g}: "
          f"{'FAIL' if failed else 'pass'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
