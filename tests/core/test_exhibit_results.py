"""The fast exhibits regenerate byte-identical to their committed results.

Every registered exhibit is deterministic given the seed: the same
``.txt`` and ``.csv`` come out whatever ran earlier in the process and
whatever ``PYTHONHASHSEED`` is. The fifteen below take under half a
second each at full size, so the exact comparison runs in the fast suite
instead of the inequality asserts of the benches. The slow nine (R-T2,
R-F1, R-F5, R-F7, R-F-alerts, R-X3, R-X6, R-X7, R-F-hyperscale) are
compared by ``benchmarks/check_exhibit_results.py``.
"""

import pathlib

import pytest

from benchmarks.check_exhibit_results import SLOW_EXHIBITS
from repro.analysis.report import export_series_csv
from repro.core.experiments import EXPERIMENTS, run_experiment

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"

FAST_EXHIBITS = [
    "R-T1", "R-T3", "R-F2", "R-F3", "R-F4", "R-F6", "R-F8", "R-F9", "R-F10",
    "R-F-phase", "R-X1", "R-X2", "R-X4", "R-X5", "R-X8",
]


@pytest.mark.parametrize("exp_id", FAST_EXHIBITS)
def test_exhibit_matches_committed_result(exp_id, tmp_path):
    result = run_experiment(exp_id, seed=0, quick=False)
    assert result.render() + "\n" == (RESULTS_DIR / f"{exp_id}.txt").read_text()
    committed_csv = RESULTS_DIR / f"{exp_id}.csv"
    if not committed_csv.exists():
        assert not result.series
        return
    csv_path = tmp_path / f"{exp_id}.csv"
    export_series_csv(result.series, csv_path)
    assert csv_path.read_bytes() == committed_csv.read_bytes()


def test_every_exhibit_is_gated_once():
    assert sorted(FAST_EXHIBITS + list(SLOW_EXHIBITS)) == sorted(EXPERIMENTS)
