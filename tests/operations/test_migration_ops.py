"""Tests for vMotion."""

import pytest

from repro.controlplane import TaskState
from repro.operations import CloneVM, MigrateVM, OperationError, PowerOn


@pytest.fixture
def running_vm(cloud):
    vm = cloud.run_op(
        CloneVM(cloud.template, "mobile", cloud.hosts[0], cloud.datastores[1], linked=True)
    ).result
    cloud.run_op(PowerOn(vm))
    return vm


def test_migrate_moves_vm(cloud, running_vm):
    task = cloud.run_op(MigrateVM(running_vm, cloud.hosts[1]))
    assert task.state == TaskState.SUCCESS
    assert running_vm.host is cloud.hosts[1]
    assert running_vm not in cloud.hosts[0].vms


def test_migrate_has_memory_copy_data_phase(cloud, running_vm):
    task = cloud.run_op(MigrateVM(running_vm, cloud.hosts[1]))
    data_seconds = task.plane_seconds("data")
    expected = running_vm.memory_gb * 1024**3 / cloud.server.costs.vmotion_bps
    assert data_seconds == pytest.approx(expected, rel=0.01)


def test_migrate_powered_off_vm_fails(cloud):
    vm = cloud.run_op(
        CloneVM(cloud.template, "cold", cloud.hosts[0], cloud.datastores[1], linked=True)
    ).result
    process = cloud.server.submit(MigrateVM(vm, cloud.hosts[1]))
    with pytest.raises(OperationError, match="powered-on"):
        cloud.sim.run(until=process)


def test_migrate_to_same_host_fails(cloud, running_vm):
    process = cloud.server.submit(MigrateVM(running_vm, cloud.hosts[0]))
    with pytest.raises(OperationError, match="same"):
        cloud.sim.run(until=process)


def test_migrate_to_unusable_host_fails(cloud, running_vm):
    from repro.datacenter import HostState

    cloud.hosts[1].state = HostState.DISCONNECTED
    process = cloud.server.submit(MigrateVM(running_vm, cloud.hosts[1]))
    with pytest.raises(OperationError, match="unusable"):
        cloud.sim.run(until=process)
