"""The fault exhibits regenerate byte-identical to their committed results.

R-X4 (crash MTTR), R-X5 (bus chaos) and R-X8 (federation) are
deterministic given the seed: the same ``.txt`` and ``.csv`` come out
whatever ran earlier in the process and whatever ``PYTHONHASHSEED`` is.
Each takes well under a second at full size, so the exact comparison
runs in the fast suite instead of the inequality asserts of the benches.
"""

import pathlib

import pytest

from repro.analysis.report import export_series_csv
from repro.core.experiments import run_experiment

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"


@pytest.mark.parametrize("exp_id", ["R-X4", "R-X5", "R-X8"])
def test_exhibit_matches_committed_result(exp_id, tmp_path):
    result = run_experiment(exp_id, seed=0, quick=False)
    assert result.render() + "\n" == (RESULTS_DIR / f"{exp_id}.txt").read_text()
    csv_path = tmp_path / f"{exp_id}.csv"
    export_series_csv(result.series, csv_path)
    assert csv_path.read_bytes() == (RESULTS_DIR / f"{exp_id}.csv").read_bytes()
