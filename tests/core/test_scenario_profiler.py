"""Integration tests for Scenario, its report, and the experiment registry."""

import dataclasses

import pytest

from repro import Scenario, profiles, run_experiment
from repro.analysis import plane_breakdown
from repro.core.experiments import EXPERIMENTS, StormRig
from repro.workloads.arrivals import Poisson


def tiny(profile=profiles.CLOUD_A):
    return dataclasses.replace(
        profile,
        hosts=4,
        datastores=2,
        orgs=2,
        initial_vms_per_host=2,
        arrivals=Poisson(rate=0.1),
    )


def deploys(result):
    records = [record for record in result.trace if record.op_type == "deploy"]
    assert records
    return records


def test_scenario_runs_and_analyzes():
    result = Scenario(profile=tiny(), duration_s=1800.0, seed=3).run()
    assert len(result.trace) > 5
    mix = result.operation_mix()
    assert sum(mix.values()) == pytest.approx(1.0)
    assert 0.0 <= result.failure_rate() <= 1.0
    assert sum(result.operation_counts().values()) == len(result.trace)


def test_scenario_duration_validation():
    with pytest.raises(ValueError):
        Scenario(profile=tiny(), duration_s=0.0).run()


def test_scenario_reproducible():
    a = Scenario(profile=tiny(), duration_s=900.0, seed=11).run()
    b = Scenario(profile=tiny(), duration_s=900.0, seed=11).run()
    assert [r.op_type for r in a.trace] == [r.op_type for r in b.trace]
    assert a.latency_by_type() == b.latency_by_type()


def test_profiler_report_sections():
    result = Scenario(profile=tiny(), duration_s=1800.0, seed=5).run()
    report = result.report()
    assert "Operation mix" in report
    assert "Operation latency" in report
    assert "Plane attribution" in report
    assert "Control-plane utilization" in report
    assert profiles.CLOUD_A.name in report


def test_profiler_plane_breakdown_mostly_control_for_linked_cloud():
    """The paper's pivot, through the public API: once *all* provisioning
    is linked, aggregate management time is control-plane dominated."""
    all_linked = dataclasses.replace(tiny(), linked_clone_fraction=1.0)
    result = Scenario(profile=all_linked, duration_s=1800.0, seed=5).run()
    breakdown = result.plane_breakdown()
    assert breakdown["control"] > breakdown["data"]
    # And per-type: linked deploys specifically are control-bound.
    deploy = plane_breakdown(deploys(result))
    assert deploy["control"] > 0.9


def test_profiler_mixed_cloud_data_time_dominated_by_minority_full_clones():
    """With even 5% full clones, the few byte-copies dominate wall time —
    the asymmetry that motivated clouds to go linked in the first place."""
    result = Scenario(profile=tiny(), duration_s=1800.0, seed=5).run()
    deploy = plane_breakdown(deploys(result))
    assert deploy["data"] > 0.5


class TestExperimentRegistry:
    def test_all_exhibits_registered(self):
        assert set(EXPERIMENTS) == {
            "R-T1", "R-T2", "R-T3",
            "R-F1", "R-F2", "R-F3", "R-F4", "R-F5",
            "R-F6", "R-F7", "R-F8", "R-F9", "R-F10",
            "R-F-phase", "R-F-alerts", "R-F-hyperscale",
            "R-X1", "R-X2", "R-X3", "R-X4", "R-X5", "R-X6", "R-X7", "R-X8",
        }

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("R-F99")

    def test_t1_renders(self):
        result = run_experiment("R-T1", quick=True)
        text = result.render()
        assert "cloud_a" in text
        assert "classic_dc" in text

    def test_f4_linked_moves_orders_less_data(self):
        result = run_experiment("R-F4", seed=2, quick=True)
        full_gb = float(result.rows[0][3])
        linked_gb = float(result.rows[1][3])
        assert full_gb > 10 * max(linked_gb, 0.001)

    def test_f10_cloud_shorter_lived(self):
        result = run_experiment("R-F10", quick=True)
        cloud_p50 = float(result.rows[0][1])
        classic_p50 = float(result.rows[1][1])
        assert cloud_p50 < classic_p50 / 50


class TestStormRig:
    def test_closed_loop_completes_all(self):
        rig = StormRig(seed=1, hosts=4, datastores=2)
        outcome = rig.closed_loop_storm(total=10, concurrency=4, linked=True)
        assert outcome["completed"] == 10
        assert outcome["throughput_per_hour"] > 0
        assert outcome["bytes_written_gb"] == 0.0

    def test_full_storm_writes_bytes(self):
        rig = StormRig(seed=1, hosts=4, datastores=2)
        outcome = rig.closed_loop_storm(total=4, concurrency=4, linked=False)
        assert outcome["bytes_written_gb"] == pytest.approx(4 * 40.0)

    def test_validation(self):
        rig = StormRig(seed=1, hosts=2, datastores=2)
        with pytest.raises(ValueError):
            rig.closed_loop_storm(total=0, concurrency=1, linked=True)


def test_headline_linked_beats_full_and_is_control_bound():
    """End-to-end check of the paper's abstract claims 1+3 via the registry."""
    result = run_experiment("R-F3", seed=4, quick=True)
    linked_rows = [row for row in result.rows if row[0] == "linked"]
    full_rows = [row for row in result.rows if row[0] == "full"]
    best_linked = max(float(row[2]) for row in linked_rows)
    best_full = max(float(row[2]) for row in full_rows)
    assert best_linked > 10 * best_full
    # Full clones hit their ceiling early (storage-bound): same throughput
    # at high concurrency as at moderate.
    assert float(full_rows[-1][2]) == pytest.approx(float(full_rows[-2][2]), rel=0.2)


def test_scenario_with_stats_collection_runs_and_loads_db():
    """A collector beside a profile's workload, built on the driver's
    server as R-X2's cell builds one beside its storm."""
    from repro.controlplane.stats_sync import StatsCollector
    from repro.sim import RandomStreams, Simulator
    from repro.workloads.driver import WorkloadDriver

    def run(level):
        driver = WorkloadDriver(Simulator(), RandomStreams(4), tiny())
        if level:
            StatsCollector(driver.server, interval_s=20.0, level=level).start(until=900.0)
        driver.run(900.0)
        return driver

    quiet, noisy = run(0), run(4)
    # The stats rows keep the database busy: more than twice the quiet load.
    quiet_load = quiet.server.database.utilization()
    assert noisy.server.database.utilization() > quiet_load * 2
    # Workload itself still completed.
    assert len(noisy.trace()) > 0
