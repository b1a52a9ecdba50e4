"""Tests for the periodic statistics-collection load."""

import pytest

from repro.controlplane import StatsCollector
from repro.controlplane.stats_sync import ROWS_PER_LEVEL

from tests.operations.conftest import SmallCloud
from tests.scoped import scoped


def run_collection(level=1, interval=20.0, horizon=200.0, hosts=4):
    cloud = SmallCloud(seed=8, hosts=hosts, telemetry=True)
    collector = StatsCollector(cloud.server, interval_s=interval, level=level)
    collector.start(until=horizon)
    cloud.sim.run(until=horizon)
    cloud.sim.run()
    return cloud, collector


def test_collection_writes_rows_per_host():
    cloud, collector = run_collection(level=1, interval=20.0, horizon=200.0, hosts=4)
    cycles = scoped(cloud.telemetry, "vc-1.stats.cycles")
    # ~9 intervals x 4 hosts (the final wake-up exits before collecting).
    assert cycles == 9 * 4
    assert scoped(cloud.telemetry, "vc-1.stats.rows") == cycles


def test_higher_level_writes_more_rows():
    low, _ = run_collection(level=1)
    high, _ = run_collection(level=4)
    assert (
        scoped(high.telemetry, "vc-1.stats.rows")
        == scoped(low.telemetry, "vc-1.stats.rows") * ROWS_PER_LEVEL[4]
    )


def test_collection_consumes_database():
    cloud, _ = run_collection(level=4, horizon=400.0)
    assert scoped(cloud.telemetry, "vc-1.db.writes") > 0
    assert cloud.server.database.utilization() > 0


def test_unusable_hosts_skipped():
    from repro.datacenter import HostState

    cloud = SmallCloud(seed=8, hosts=2, telemetry=True)
    cloud.hosts[0].state = HostState.MAINTENANCE
    collector = StatsCollector(cloud.server, interval_s=20.0)
    collector.start(until=100.0)
    cloud.sim.run(until=100.0)
    cloud.sim.run()
    # Only the usable host was polled.
    assert scoped(cloud.telemetry, "vc-1.stats.cycles") == 4 * 1


def test_pull_errors_counted():
    cloud = SmallCloud(seed=8, hosts=1, telemetry=True)
    agent = cloud.server.agent(cloud.hosts[0])
    agent.faults.block("outage")
    collector = StatsCollector(cloud.server, interval_s=20.0)
    collector.start(until=50.0)
    cloud.sim.run(until=30.0)  # the t=20 pull fails
    agent.faults.disarm("outage")
    cloud.sim.run(until=50.0)
    cloud.sim.run()
    assert scoped(cloud.telemetry, "vc-1.stats.pull_errors") == 1
    assert scoped(cloud.telemetry, "vc-1.stats.cycles") == 1


def test_stop_halts_collection():
    cloud = SmallCloud(seed=8, hosts=1, telemetry=True)
    collector = StatsCollector(cloud.server, interval_s=10.0)
    collector.start()
    cloud.sim.run(until=35.0)
    collector.stop()
    cloud.sim.run()
    assert scoped(cloud.telemetry, "vc-1.stats.cycles") == 3


def test_validation():
    cloud = SmallCloud(seed=8, hosts=1)
    with pytest.raises(ValueError):
        StatsCollector(cloud.server, interval_s=0.0)
    with pytest.raises(ValueError):
        StatsCollector(cloud.server, level=7)
    collector = StatsCollector(cloud.server)
    collector.start(until=10.0)
    with pytest.raises(RuntimeError):
        collector.start()


def test_stats_load_reduces_provisioning_headroom():
    """The ISCA'10 point: baseline stats load competes with provisioning.

    With a small DB connection pool, hot level-4 collection over every
    host keeps the database busy and the same clone storm takes visibly
    longer to finish.
    """
    from repro.controlplane import ControlPlaneConfig
    from repro.operations import CloneVM

    def storm_makespan(with_stats):
        horizon = 2000.0
        cloud = SmallCloud(seed=9, hosts=4, config=ControlPlaneConfig(db_connections=2))
        if with_stats:
            collector = StatsCollector(cloud.server, interval_s=0.5, level=4)
            collector.start(until=horizon)
        for index in range(30):
            cloud.server.submit(
                CloneVM(
                    cloud.template,
                    f"c{index}",
                    cloud.hosts[index % 4],
                    cloud.datastores[0],
                    linked=True,
                )
            )
        cloud.sim.run(until=horizon)
        cloud.sim.run()
        done = cloud.server.tasks.succeeded()
        assert len(done) == 30
        return max(task.finished_at for task in done)

    quiet = storm_makespan(False)
    noisy = storm_makespan(True)
    assert noisy > 1.5 * quiet
