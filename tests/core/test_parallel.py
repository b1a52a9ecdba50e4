"""Tests for the parallel sweep runner (repro.core.parallel)."""

import math
import os

import pytest

from repro.core.parallel import (
    ENV_VAR,
    derive_seed,
    resolve_parallelism,
    run_cells,
)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


class TestResolveParallelism:
    def test_default_is_serial(self):
        assert resolve_parallelism() == 1

    def test_explicit_request_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "8")
        assert resolve_parallelism(3) == 3

    def test_env_var_honoured(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "4")
        assert resolve_parallelism() == 4

    def test_zero_means_cpu_count(self):
        assert resolve_parallelism(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_parallelism(-1)

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "many")
        with pytest.raises(ValueError, match="not an integer"):
            resolve_parallelism()

    def test_blank_env_is_serial(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "  ")
        assert resolve_parallelism() == 1


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, 0) == derive_seed(0, 0)
        assert derive_seed(123, 7) == derive_seed(123, 7)

    def test_distinct_across_indices_and_bases(self):
        seeds = {derive_seed(base, index) for base in range(4) for index in range(64)}
        assert len(seeds) == 4 * 64

    def test_fits_in_64_bits(self):
        for index in range(100):
            assert 0 <= derive_seed(2**63, index) < 2**64


class TestRunCells:
    def test_serial_runs_in_order(self):
        seen = []

        def worker(cell):
            seen.append(cell)
            return cell * 2

        assert run_cells(worker, [1, 2, 3], parallel=1) == [2, 4, 6]
        assert seen == [1, 2, 3]

    def test_empty_cells(self):
        assert run_cells(math.factorial, [], parallel=2) == []

    def test_single_cell_stays_serial(self):
        # A lambda is not picklable; one cell must never hit the pool.
        assert run_cells(lambda cell: cell + 1, [41], parallel=8) == [42]

    def test_parallel_results_ordered_and_equal_to_serial(self):
        cells = list(range(10))
        serial = run_cells(math.factorial, cells, parallel=1)
        parallel = run_cells(math.factorial, cells, parallel=2)
        assert parallel == serial == [math.factorial(n) for n in cells]

    def test_env_var_drives_pool(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "2")
        assert run_cells(math.factorial, [3, 4, 5]) == [6, 24, 120]


class TestExperimentEquality:
    """Parallel and serial sweeps must produce identical exhibits."""

    def test_f6_parallel_equals_serial(self):
        from repro.core.experiments import run_experiment

        serial = run_experiment("R-F6", seed=0, quick=True, parallel=1)
        parallel = run_experiment("R-F6", seed=0, quick=True, parallel=2)
        assert parallel.render() == serial.render()

    def test_run_experiment_passes_parallel_through(self):
        from repro.core.experiments import run_experiment

        serial = run_experiment("R-F6", seed=0, quick=True)
        parallel = run_experiment("R-F6", seed=0, quick=True, parallel=2)
        assert parallel.render() == serial.render()

    def test_single_cell_experiments_ignore_parallel(self):
        from repro.core.experiments import run_experiment

        result = run_experiment("R-T1", seed=0, quick=True, parallel=2)
        assert result.exp_id == "R-T1"
