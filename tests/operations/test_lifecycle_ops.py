"""Tests for power, reconfigure, snapshot, and destroy operations."""

import pytest

from repro.controlplane import TaskState
from repro.datacenter import PowerState, VirtualMachine
from repro.operations import (
    CloneVM,
    CreateSnapshot,
    DeleteSnapshot,
    DestroyVM,
    OperationError,
    PowerOff,
    PowerOn,
    ReconfigureVM,
)


@pytest.fixture
def vm(cloud):
    """A linked clone placed on host 0."""
    task = cloud.run_op(
        CloneVM(cloud.template, "vm-under-test", cloud.hosts[0], cloud.datastores[1], linked=True)
    )
    return task.result


def test_power_on_then_off(cloud, vm):
    task = cloud.run_op(PowerOn(vm))
    assert task.state == TaskState.SUCCESS
    assert vm.power_state == PowerState.ON
    task = cloud.run_op(PowerOff(vm))
    assert vm.power_state == PowerState.OFF


def test_power_on_twice_fails(cloud, vm):
    cloud.run_op(PowerOn(vm))
    process = cloud.server.submit(PowerOn(vm))
    with pytest.raises(OperationError, match="already powered on"):
        cloud.sim.run(until=process)


def test_power_off_when_off_fails(cloud, vm):
    process = cloud.server.submit(PowerOff(vm))
    with pytest.raises(OperationError, match="already powered off"):
        cloud.sim.run(until=process)


def test_power_unplaced_vm_fails(cloud):
    orphan = cloud.server.inventory.create(VirtualMachine, name="orphan")
    process = cloud.server.submit(PowerOn(orphan))
    with pytest.raises(OperationError, match="not placed"):
        cloud.sim.run(until=process)


def test_reconfigure_updates_hardware(cloud, vm):
    task = cloud.run_op(ReconfigureVM(vm, vcpus=8, memory_gb=16.0))
    assert task.state == TaskState.SUCCESS
    assert vm.vcpus == 8
    assert vm.memory_gb == 16.0


def test_reconfigure_partial_update(cloud, vm):
    original_memory = vm.memory_gb
    cloud.run_op(ReconfigureVM(vm, vcpus=4))
    assert vm.vcpus == 4
    assert vm.memory_gb == original_memory


def test_snapshot_create_deepens_chain(cloud, vm):
    depth_before = vm.max_chain_depth
    task = cloud.run_op(CreateSnapshot(vm, "before-upgrade"))
    assert task.state == TaskState.SUCCESS
    assert vm.max_chain_depth == depth_before + 1
    assert len(vm.snapshots) == 1


def test_snapshot_delete_merges_delta_and_copies(cloud, vm):
    depth_before = vm.max_chain_depth  # linked clone: 2
    cloud.run_op(CreateSnapshot(vm, "s1"))
    written_before = cloud.server.copy_engine.total_bytes_written
    task = cloud.run_op(DeleteSnapshot(vm, written_gb=2.0))
    assert task.state == TaskState.SUCCESS
    assert vm.snapshots == []
    assert vm.max_chain_depth == depth_before
    # Merging the delta is a data-plane copy of the written bytes, not the
    # whole logical disk.
    moved_gb = (cloud.server.copy_engine.total_bytes_written - written_before) / 1024**3
    assert 0 < moved_gb < vm.total_disk_gb / 2
    assert task.plane_seconds("data") > 0


def test_snapshot_delete_does_not_leak_datastore_space(cloud, vm):
    datastore = cloud.datastores[1]
    used_before = datastore.used_gb
    cloud.run_op(CreateSnapshot(vm, "s1"))
    cloud.run_op(DeleteSnapshot(vm, written_gb=2.0))
    # Net growth is exactly the guest-written bytes now living in the chain.
    assert datastore.used_gb - used_before == pytest.approx(2.0)


def test_snapshot_delete_without_snapshot_fails(cloud, vm):
    process = cloud.server.submit(DeleteSnapshot(vm))
    with pytest.raises(OperationError, match="no snapshots"):
        cloud.sim.run(until=process)


def test_destroy_removes_vm_and_reclaims_space(cloud, vm):
    datastore = cloud.datastores[1]
    used_before = datastore.used_gb
    task = cloud.run_op(DestroyVM(vm))
    assert task.state == TaskState.SUCCESS
    assert vm.entity_id not in cloud.server.inventory
    assert vm.host is None
    assert vm.destroyed_at == pytest.approx(task.finished_at, abs=1.0)
    assert datastore.used_gb < used_before


def test_destroy_powered_on_vm_fails(cloud, vm):
    cloud.run_op(PowerOn(vm))
    process = cloud.server.submit(DestroyVM(vm))
    with pytest.raises(OperationError, match="powered on"):
        cloud.sim.run(until=process)


def test_destroy_linked_clone_keeps_shared_parent(cloud, vm):
    anchor = cloud.template.disks[0].backing
    # Another clone shares the anchor.
    other = cloud.run_op(
        CloneVM(cloud.template, "sibling", cloud.hosts[1], cloud.datastores[1], linked=True)
    ).result
    assert anchor.children == 2
    cloud.run_op(DestroyVM(vm))
    assert anchor.children == 1
    # Template base still allocated on its datastore.
    assert cloud.datastores[0].used_gb >= cloud.template.total_disk_gb
    assert other.entity_id in cloud.server.inventory


def test_lock_serializes_ops_on_same_vm(cloud, vm):
    """Two ops on one VM must not interleave their host phases."""
    p1 = cloud.server.submit(ReconfigureVM(vm, vcpus=4))
    p2 = cloud.server.submit(ReconfigureVM(vm, vcpus=8))
    cloud.sim.run()
    assert p1.ok and p2.ok
    assert vm.vcpus in (4, 8)
    # Lock wait shows up in the metrics.
    assert cloud.server.locks.acquire_wait.count >= 2
