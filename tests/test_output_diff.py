"""Tests of the value-level output comparison in ``tools/``.

``tools/output_diff.py`` compares two directories written by
``tools/cli_digest.py --values``. The planted changes below each move a
digest without saying how far or where: a last-bit move in one table
cell, a changed exclusion count, a changed exit code.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

SIMULATE = """\
# scenario: clean
# replications: 40
beta,n_used,n_failed,rmse_a0,coverage_mean_direct
0.0,40.0,0.0,1.1452599666778136,0.9
0.2,40.0,0.0,1.1210124461458193,0.925
"""

PRETTY = """\
# dataset: solar
row       beta   a0     a1
--------  -----  -----  ------
beta=0    0      1.804  -2.388
beta=0.5  0.500  1.823  -2.373
null hypothesis not rejected at level 0.05 (p=0.9637)
"""

JSON_TABLE = {
    "meta": {"dataset": "solar", "rounds": 3},
    "columns": ["statistic", "p_value"],
    "rows": [[1.458178705987091, 0.2272201301074932]],
}


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


output_diff = _load("output_diff")


def _save(directory: Path, outputs: dict) -> Path:
    """Write {command: (exit, stdout, stderr)} in the ``--values`` layout."""
    directory.mkdir()
    index = []
    for number, (command, (code, stdout, stderr)) in enumerate(outputs.items()):
        name = f"{number:03d}.out"
        (directory / name).write_text(stdout, encoding="utf-8")
        index.append({"command": command, "exit": code, "stdout": name, "stderr": stderr})
    (directory / "index.json").write_text(json.dumps(index), encoding="utf-8")
    return directory


BASE = {
    "simulate --scenario clean": (0, SIMULATE, ""),
    "fit --data solar": (0, PRETTY, ""),
    "test --data solar --format json": (0, json.dumps(JSON_TABLE, indent=2), ""),
    "fit --data nope": (3, "", "error: no dataset named 'nope'\n"),
}


def _diff(root: Path, capsys, changed: dict, *options):
    root.mkdir(exist_ok=True)
    before = _save(root / "before", BASE)
    after = _save(root / "after", {**BASE, **changed})
    code = output_diff.main([str(before), str(after), *options])
    return code, capsys.readouterr().out


def test_identical_outputs_pass(tmp_path, capsys):
    code, out = _diff(tmp_path, capsys, {})
    assert code == 0
    assert out.count("    identical\n") == len(BASE)
    assert "0 moved" in out


def test_last_bit_move_in_one_cell_is_reported_with_its_column(tmp_path, capsys):
    moved = SIMULATE.replace("1.1210124461458193", repr(1.1210124461458193 * (1 + 1e-12)))
    assert moved != SIMULATE
    changed = {"simulate --scenario clean": (0, moved, "")}
    code, out = _diff(tmp_path, capsys, changed)
    assert code == 1
    (line,) = [line for line in out.splitlines() if line.strip().startswith("column")]
    assert "column rmse_a0:" in line and "(1 cells)" in line
    rel = float(line.split("max rel ")[1].split()[0])
    assert rel == pytest.approx(1e-12, rel=1e-3)
    # the same move passes under a tolerance above it
    code, out = _diff(tmp_path / "tolerant", capsys, changed, "--rtol", "1e-9")
    assert code == 0 and out.rstrip().endswith("pass")


def test_changed_exclusion_count_fails_when_every_other_column_agrees(
    tmp_path, capsys
):
    moved = SIMULATE.replace("0.2,40.0,0.0,", "0.2,40.0,1.0,")
    changed = {"simulate --scenario clean": (0, moved, "")}
    code, out = _diff(tmp_path, capsys, changed, "--rtol", "10")
    assert code == 1
    assert "n_failed row 2: '0.0' -> '1.0'" in out


def test_changed_exit_code_fails(tmp_path, capsys):
    changed = {"fit --data nope": (1, "", "error: no dataset named 'nope'\n")}
    code, out = _diff(tmp_path, capsys, changed, "--rtol", "10")
    assert code == 1
    assert "exit code 3 -> 1" in out


def test_changed_stderr_line_fails(tmp_path, capsys):
    changed = {"fit --data nope": (3, "", "error: no such dataset\n")}
    code, out = _diff(tmp_path, capsys, changed, "--rtol", "10")
    assert code == 1
    assert "stderr - error: no dataset named 'nope'" in out
    assert "stderr + error: no such dataset" in out


def test_pretty_and_json_cells_are_read_by_column(tmp_path, capsys):
    pretty = PRETTY.replace("-2.373", "-2.374").replace("p=0.9637", "p=0.9638")
    table = {**JSON_TABLE, "rows": [[1.458178705987092, 0.2272201301074932]]}
    changed = {
        "fit --data solar": (0, pretty, ""),
        "test --data solar --format json": (0, json.dumps(table, indent=2), ""),
    }
    code, out = _diff(tmp_path, capsys, changed, "--rtol", "1e-3")
    assert code == 0
    assert "column a1: max abs 0.001" in out
    assert "column text line 6:" in out
    assert "column statistic:" in out
    assert "2 moved" in out


def test_changed_format_alone_is_a_note(tmp_path, capsys):
    changed = {"fit --data solar": (0, PRETTY.replace("0.500", "0.5"), "")}
    code, out = _diff(tmp_path, capsys, changed, "--rtol", "10")
    assert code == 1
    assert "beta row 2: '0.500' -> '0.5'" in out


def test_changed_text_and_missing_command_fail(tmp_path, capsys):
    before = _save(tmp_path / "before", BASE)
    after = dict(BASE)
    del after["fit --data nope"]
    after["fit --data solar"] = (0, PRETTY.replace("not rejected", "rejected"), "")
    code = output_diff.main([str(before), str(_save(tmp_path / "after", after))])
    out = capsys.readouterr().out
    assert code == 1
    assert "only in before: fit --data nope" in out
    assert "text line 6: 'null hypothesis not rejected" in out


def test_importing_cli_digest_leaves_process_state_alone(monkeypatch):
    monkeypatch.delenv("COLUMNS", raising=False)
    path = list(sys.path)
    monkeypatch.setattr(sys, "path", list(path))
    _load("cli_digest")
    assert "COLUMNS" not in os.environ
    assert sys.path == path


def test_cli_digest_saves_values_the_diff_reads(tmp_path, capsys, monkeypatch):
    # the digest script's main sets COLUMNS and sys.path; restore both after
    monkeypatch.setenv("COLUMNS", os.environ.get("COLUMNS", "80"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    cli_digest = _load("cli_digest")
    argvs = [["datasets"], ["fit", "--data", "solar", "--beta", "0,1", "--format", "csv"]]
    monkeypatch.setattr(cli_digest, "commands", lambda tmp: argvs)
    cli_digest.main(["--values", str(tmp_path / "values")])
    capsys.readouterr()
    saved = output_diff.load(tmp_path / "values")
    assert list(saved) == [" ".join(argv) for argv in argvs]
    assert all(entry["exit"] == 0 for entry in saved.values())
    fit_cells = output_diff.cells(saved[" ".join(argvs[1])]["stdout"])
    assert fit_cells[("beta", "row 2")] == "1.0"
    assert ("a0", "row 1") in fit_cells and ("dataset", "header") in fit_cells
    code = output_diff.main([str(tmp_path / "values"), str(tmp_path / "values")])
    assert code == 0
