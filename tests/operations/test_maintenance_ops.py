"""Tests for host maintenance-mode workflows."""

import pytest

from repro.controlplane import TaskState
from repro.datacenter import HostState, PowerState
from repro.operations import (
    CloneVM,
    EnterMaintenance,
    ExitMaintenance,
    OperationError,
    PowerOn,
)


def populate(cloud, host, count, power_on=True):
    vms = []
    for index in range(count):
        vm = cloud.run_op(
            CloneVM(
                cloud.template,
                f"{host.name}-vm{index}",
                host,
                cloud.datastores[0],
                linked=True,
            )
        ).result
        if power_on:
            cloud.run_op(PowerOn(vm))
        vms.append(vm)
    return vms


def test_enter_maintenance_evacuates_running_vms(cloud):
    victims = populate(cloud, cloud.hosts[0], 3)
    task = cloud.run_op(
        EnterMaintenance(cloud.hosts[0], targets=cloud.hosts[1:])
    )
    assert task.state == TaskState.SUCCESS
    assert cloud.hosts[0].state == HostState.MAINTENANCE
    assert not cloud.hosts[0].vms
    for vm in victims:
        assert vm.host in cloud.hosts[1:]
        assert vm.power_state == PowerState.ON


def test_enter_maintenance_cold_relocates_off_vms(cloud):
    victims = populate(cloud, cloud.hosts[0], 2, power_on=False)
    written_before = cloud.server.copy_engine.total_bytes_written
    cloud.run_op(EnterMaintenance(cloud.hosts[0], targets=cloud.hosts[1:]))
    # Cold relocation moves no data and performs no migrations.
    assert cloud.server.copy_engine.total_bytes_written == written_before
    for vm in victims:
        assert vm.host is not cloud.hosts[0]


def test_enter_maintenance_spreads_round_robin(cloud):
    populate(cloud, cloud.hosts[0], 6)
    cloud.run_op(EnterMaintenance(cloud.hosts[0], targets=cloud.hosts[1:]))
    loads = [len(host.vms) for host in cloud.hosts[1:]]
    assert max(loads) - min(loads) <= 1


def test_enter_maintenance_without_targets_fails(cloud):
    populate(cloud, cloud.hosts[0], 1)
    process = cloud.server.submit(EnterMaintenance(cloud.hosts[0], targets=[]))
    with pytest.raises(OperationError, match="no evacuation target"):
        cloud.sim.run(until=process)
    assert cloud.hosts[0].state == HostState.CONNECTED


def test_enter_maintenance_twice_fails(cloud):
    cloud.run_op(EnterMaintenance(cloud.hosts[0], targets=cloud.hosts[1:]))
    process = cloud.server.submit(
        EnterMaintenance(cloud.hosts[0], targets=cloud.hosts[1:])
    )
    with pytest.raises(OperationError, match="is maintenance"):
        cloud.sim.run(until=process)


def test_exit_maintenance_restores_host(cloud):
    cloud.run_op(EnterMaintenance(cloud.hosts[0], targets=cloud.hosts[1:]))
    task = cloud.run_op(ExitMaintenance(cloud.hosts[0]))
    assert task.state == TaskState.SUCCESS
    assert cloud.hosts[0].is_usable


def test_exit_without_maintenance_fails(cloud):
    process = cloud.server.submit(ExitMaintenance(cloud.hosts[0]))
    with pytest.raises(OperationError, match="not in maintenance"):
        cloud.sim.run(until=process)


def test_rolling_maintenance_across_cluster(cloud):
    """The cloud-era routine: patch every host, one at a time."""
    populate(cloud, cloud.hosts[0], 2)
    populate(cloud, cloud.hosts[1], 2)
    for host in cloud.hosts:
        others = [h for h in cloud.hosts if h is not host]
        cloud.run_op(EnterMaintenance(host, targets=others))
        cloud.run_op(ExitMaintenance(host))
    assert all(host.is_usable for host in cloud.hosts)
    # All four VMs still running somewhere.
    running = sum(host.powered_on_vms for host in cloud.hosts)
    assert running == 4
