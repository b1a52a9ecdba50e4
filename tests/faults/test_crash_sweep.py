"""A bounded chaos crash-sweep in tier-1.

The full acceptance sweep (200 randomized crash points, ``python -m
repro.faults.chaos``) is CI's chaos job; this keeps a small deterministic
slice of it in the fast suite so the exactly-once invariant cannot rot
between chaos runs.
"""

import random

from repro.faults.chaos import fault_sweep, run_fault_point, storm_rig


def test_bounded_sweep_holds_exactly_once():
    results = fault_sweep(
        "crash",
        seeds=range(2),
        points_per_seed=3,
        rng=random.Random(0xC4A5),
        total=8,
        concurrency=3,
    )
    assert len(results) == 6
    for result in results:
        assert result.ok, (result.seed, result.faults, result.violations)
    # The sweep actually exercised recovery, not just post-drain crashes.
    assert sum(result.counters["parked"] for result in results) > 0
    assert sum(
        result.counters[verdict]
        for result in results
        for verdict in ("adopted", "reissued", "requeued")
    ) > 0


def test_baseline_point_runs_crash_free():
    result = run_fault_point(storm_rig(seed=0, total=6, concurrency=3))
    assert result.ok
    assert result.faults == ()
    assert result.counters["parked"] == 0
    assert result.counters["mttr_s"] == 0.0
    assert result.completed == 6
