"""Tests for trace replay and what-if comparison."""

import dataclasses

import pytest

from repro.analysis.comparison import MIN_SAMPLES, compare_traces, comparison_report
from repro.controlplane import ControlPlaneConfig
from repro.sim import RandomStreams, Simulator
from repro.traces import TraceRecord
from repro.workloads import CLOUD_A, WorkloadDriver
from repro.workloads.arrivals import Poisson
from repro.workloads.replay import TraceReplayer, replay_against


def small_profile():
    return dataclasses.replace(
        CLOUD_A,
        hosts=4,
        datastores=2,
        orgs=2,
        initial_vms_per_host=3,
        arrivals=Poisson(rate=0.2),
    )


@pytest.fixture(scope="module")
def recorded():
    sim = Simulator()
    driver = WorkloadDriver(sim, RandomStreams(17), small_profile())
    driver.run(1200.0)
    return driver.trace()


def test_replay_reissues_the_stream(recorded):
    replayer = replay_against(recorded, small_profile(), seed=5)
    assert replayer.replayed > 0
    replay_trace = replayer.trace()
    assert len(replay_trace) > 0
    # Same operation vocabulary.
    assert set(r.op_type for r in replay_trace) <= set(
        r.op_type for r in recorded
    ) | {"clone_linked", "clone_full"}


def test_replay_preserves_submission_times(recorded):
    replayer = replay_against(recorded, small_profile(), seed=5)
    # Directly-submitted ops (not deploy fan-out) land at recorded offsets.
    recorded_times = sorted(r.submitted_at for r in recorded)
    replay_times = sorted(r.submitted_at for r in replayer.trace())
    assert replay_times[0] >= recorded_times[0] - 1e-6


def test_replay_horizon_truncates(recorded):
    replayer = replay_against(recorded, small_profile(), seed=5, duration=300.0)
    full = replay_against(recorded, small_profile(), seed=5)
    assert replayer.replayed < full.replayed


def test_empty_trace_rejected():
    sim = Simulator()
    with pytest.raises(ValueError, match="empty trace"):
        TraceReplayer(sim, RandomStreams(1), small_profile(), [])


def test_unknown_op_types_counted_not_crashed(recorded):
    doctored = list(recorded[:5]) + [
        TraceRecord(
            op_type="defragment_flux_capacitor",
            submitted_at=10.0,
            started_at=10.0,
            finished_at=11.0,
            success=True,
            control_s=1.0,
            data_s=0.0,
        )
    ]
    replayer = replay_against(doctored, small_profile(), seed=5)
    assert replayer.unsupported == {"defragment_flux_capacitor": 1}


def test_op_types_without_a_handler_are_skipped_not_replayed():
    records = [
        TraceRecord(
            op_type=op_type,
            submitted_at=10.0 + index,
            started_at=10.0 + index,
            finished_at=11.0 + index,
            success=True,
            control_s=1.0,
            data_s=0.0,
        )
        for index, op_type in enumerate(("clone_linked", "enter_maintenance", "clone_full"))
    ]
    replayer = replay_against(records, small_profile(), seed=5)
    assert replayer.replayed == 0
    assert replayer.skipped == {"clone_linked": 1, "enter_maintenance": 1, "clone_full": 1}
    assert replayer.unsupported == {}


def test_whatif_better_config_reduces_latency(recorded):
    """The flagship flow: same workload, beefier control plane, faster ops.

    Compared per operation type (the aggregate mean is dominated by how
    many heavy-tailed full clones each random mixture happens to contain).
    """
    from repro.analysis.latency import latency_by_type

    baseline = replay_against(recorded, small_profile(), seed=5)
    improved = replay_against(
        recorded,
        small_profile(),
        seed=5,
        config=ControlPlaneConfig(cpu_workers=16, db_batching=True),
    )
    base_stats = latency_by_type(baseline.trace())
    improved_stats = latency_by_type(improved.trace())
    assert improved_stats["deploy"]["p50"] < base_stats["deploy"]["p50"]
    common = [
        op
        for op in set(base_stats) & set(improved_stats)
        if base_stats[op]["count"] >= 5
    ]
    better = sum(
        1 for op in common if improved_stats[op]["p50"] <= base_stats[op]["p50"]
    )
    assert better >= 0.7 * len(common)


class TestComparison:
    def test_compare_traces_structure(self, recorded):
        headers, rows = compare_traces(recorded, recorded)
        assert headers[0] == "operation"
        for row in rows:
            assert row[4] == "1.00x"  # identical traces

    def test_min_samples_filters(self, recorded):
        rare = [r for r in recorded if r.op_type == "deploy"][:1]
        assert len(rare) < MIN_SAMPLES
        headers, rows = compare_traces(rare, rare)
        assert rows == []

    def test_report_contains_summary(self, recorded):
        report = comparison_report(recorded, recorded, "before", "after")
        assert "What-if comparison" in report
        assert "overall mean latency" in report
        assert "before" in report and "after" in report
