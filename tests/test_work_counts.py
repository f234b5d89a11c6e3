"""Tests of ``tools/work_counts.py``'s counting of the package's work."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

from stepstress import estimation, montecarlo
from stepstress.datasets import load_dataset
from stepstress.estimation import FitConfig, fit

TOOL = Path(__file__).resolve().parent.parent / "tools" / "work_counts.py"


def _load():
    spec = importlib.util.spec_from_file_location("work_counts", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entry_points():
    return (
        estimation.cell_probabilities,
        estimation.fit_proportions,
        montecarlo.fit_proportions,
        estimation.optimize.minimize,
    )


def test_importing_leaves_the_import_path_alone():
    before = list(sys.path)
    _load()
    assert sys.path == before


def test_counts_a_fit_and_restores_the_entry_points(monkeypatch):
    work_counts = _load()
    bundle = load_dataset("solar")
    calls = []
    probabilities = estimation.cell_probabilities

    def recording(*args):
        calls.append(None)
        return probabilities(*args)

    monkeypatch.setattr(estimation, "cell_probabilities", recording)
    before = _entry_points()
    counts = Counter()
    with work_counts.counting(counts):
        fit(bundle.plan, bundle.data, FitConfig(beta=0.5, multistart=5))
    assert counts == {"cell_probabilities": len(calls), "fits": 1, "minimize": 5}
    assert _entry_points() == before
