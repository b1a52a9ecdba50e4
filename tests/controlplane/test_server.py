"""Integration tests of the management server under operation load."""

import pytest

from repro.controlplane import ControlPlaneConfig
from repro.operations import CloneVM

from tests.operations.conftest import SmallCloud


def storm(cloud, count, linked, power_on=False):
    processes = []
    for index in range(count):
        host = cloud.hosts[index % len(cloud.hosts)]
        ds = cloud.datastores[index % len(cloud.datastores)]
        op = CloneVM(
            cloud.template, f"vm-{index}", host, ds, linked=linked, power_on_after=power_on
        )
        processes.append(cloud.server.submit(op))
    cloud.sim.run()
    return processes


def test_utilization_snapshot_keys():
    cloud = SmallCloud()
    storm(cloud, 10, linked=True)
    snapshot = cloud.server.utilization_snapshot()
    assert set(snapshot) == {"cpu", "db", "hostd_mean", "lock_wait_mean_s", "task_queue_mean"}
    assert all(value >= 0 for value in snapshot.values())


def test_bottleneck_names_a_resource():
    cloud = SmallCloud()
    storm(cloud, 20, linked=True)
    assert cloud.server.bottleneck() in ("cpu", "db", "hostd_mean")


def test_inflight_limit_caps_concurrent_tasks():
    config = ControlPlaneConfig(max_inflight_tasks=2)
    cloud = SmallCloud(config=config)
    storm(cloud, 12, linked=True)
    assert max(depth for _, depth in cloud.server.tasks.queue_depth_series()) >= 1
    assert len(cloud.server.tasks.succeeded()) == 12


def test_linked_storm_faster_than_full_storm():
    """The paper's asymmetry at storm scale, same control-plane config."""

    def total_time(linked):
        cloud = SmallCloud(seed=11)
        storm(cloud, 24, linked=linked)
        return cloud.sim.now

    assert total_time(True) < total_time(False) / 3


def test_full_storm_bottleneck_is_data_plane():
    cloud = SmallCloud(seed=13)
    storm(cloud, 24, linked=False)
    tasks = cloud.server.tasks.succeeded()
    data = sum(task.plane_seconds("data") for task in tasks)
    control = sum(task.plane_seconds("control") for task in tasks)
    assert data > control


def test_linked_storm_bottleneck_is_control_plane():
    cloud = SmallCloud(seed=13)
    storm(cloud, 24, linked=True)
    tasks = cloud.server.tasks.succeeded()
    data = sum(task.plane_seconds("data") for task in tasks)
    control = sum(task.plane_seconds("control") for task in tasks)
    assert control > data
    assert data == 0.0


def test_breaker_state_probe_exists_only_with_a_breaker():
    from repro.controlplane.resilience import BreakerPolicy

    def state_probes(cloud):
        return [
            probe for probe in cloud.telemetry.probes if probe.name == "hostd_breaker_state"
        ]

    assert state_probes(SmallCloud(telemetry=True)) == []
    cloud = SmallCloud(
        config=ControlPlaneConfig(breaker=BreakerPolicy(failure_threshold=1)),
        telemetry=True,
    )
    probes = state_probes(cloud)
    assert [dict(probe.labels)["host"] for probe in probes] == [
        host.name for host in cloud.hosts
    ]
    cloud.server.agent(cloud.hosts[1]).breaker.record_failure()
    assert [probe.value for probe in probes] == [0.0, 2.0, 0.0, 0.0]


def test_adopt_host_twice_rejected():
    cloud = SmallCloud()
    with pytest.raises(ValueError, match="already adopted"):
        cloud.server.adopt_host(cloud.hosts[0])


def test_agent_lookup_unknown_host():
    from repro.datacenter import Host

    cloud = SmallCloud()
    stranger = Host(entity_id="host-x", name="stranger")
    with pytest.raises(KeyError, match="not managed"):
        cloud.server.agent(stranger)


def test_submit_returns_completed_task_as_value():
    cloud = SmallCloud()
    op = CloneVM(cloud.template, "one", cloud.hosts[0], cloud.datastores[0], linked=True)
    process = cloud.server.submit(op)
    task = cloud.sim.run(until=process)
    assert task.op_type == "clone_linked"
    assert task.result.name == "one"
