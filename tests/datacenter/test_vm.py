"""Unit tests for VMs, disks, backing chains, and snapshots."""

import pytest

from repro.datacenter import (
    Datastore,
    DiskBacking,
    Host,
    PowerState,
    VirtualDisk,
    VirtualMachine,
)


@pytest.fixture
def datastore():
    return Datastore(entity_id="ds-1", name="lun01", capacity_gb=1000.0)


def make_vm(n=1, **kw):
    return VirtualMachine(entity_id=f"vm-{n}", name=f"vm{n}", **kw)


def test_base_backing_chain_depth_is_one(datastore):
    backing = DiskBacking(datastore=datastore, size_gb=40.0)
    assert backing.chain_depth == 1
    assert backing.chain() == [backing]
    assert backing.logical_size_gb == 40.0


def test_linked_chain_depth_and_logical_size(datastore):
    base = DiskBacking(datastore=datastore, size_gb=40.0, read_only=True)
    delta = DiskBacking(datastore=datastore, size_gb=2.0, parent=base)
    leaf = DiskBacking(datastore=datastore, size_gb=0.5, parent=delta)
    assert leaf.chain_depth == 3
    assert leaf.logical_size_gb == pytest.approx(42.5)
    assert base.children == 1
    assert delta.children == 1


def test_backing_rejects_negative_size(datastore):
    with pytest.raises(ValueError):
        DiskBacking(datastore=datastore, size_gb=-1.0)


def test_vm_disk_accounting(datastore):
    vm = make_vm()
    base = DiskBacking(datastore=datastore, size_gb=40.0, read_only=True)
    delta = DiskBacking(datastore=datastore, size_gb=1.0, parent=base)
    vm.attach_disk(VirtualDisk(label="disk-0", backing=delta, provisioned_gb=40.0))
    assert vm.total_disk_gb == 40.0
    assert vm.disks[0].backing.size_gb == 1.0  # only the delta is unique to this VM
    assert vm.max_chain_depth == 2


def test_full_clone_vm_is_not_linked(datastore):
    vm = make_vm()
    backing = DiskBacking(datastore=datastore, size_gb=40.0)
    vm.attach_disk(VirtualDisk(label="disk-0", backing=backing, provisioned_gb=40.0))
    assert vm.max_chain_depth == 1
    assert vm.disks[0].backing.size_gb == 40.0


def test_vm_placement_moves_between_hosts():
    vm = make_vm()
    host_a = Host(entity_id="host-1", name="a")
    host_b = Host(entity_id="host-2", name="b")
    vm.place_on(host_a)
    assert vm in host_a.vms
    vm.place_on(host_b)
    assert vm not in host_a.vms
    assert vm in host_b.vms
    vm.evacuate()
    assert vm.host is None
    assert vm not in host_b.vms


def test_host_powered_on_count():
    host = Host(entity_id="host-1", name="a")
    on = make_vm(1, power_state=PowerState.ON)
    off = make_vm(2)
    on.place_on(host)
    off.place_on(host)
    assert host.powered_on_vms == 1


def test_snapshot_freezes_leaf_and_adds_delta(datastore):
    vm = make_vm()
    base = DiskBacking(datastore=datastore, size_gb=40.0)
    vm.attach_disk(VirtualDisk(label="disk-0", backing=base, provisioned_gb=40.0))
    snapshot = vm.take_snapshot("pre-upgrade")
    assert base.read_only
    assert snapshot.backings == [base]
    assert vm.disks[0].backing is not base
    assert vm.disks[0].backing.parent is base
    assert vm.max_chain_depth == 2


def test_multiple_snapshots_deepen_chain(datastore):
    vm = make_vm()
    base = DiskBacking(datastore=datastore, size_gb=40.0)
    vm.attach_disk(VirtualDisk(label="disk-0", backing=base, provisioned_gb=40.0))
    for index in range(3):
        vm.take_snapshot(f"snap-{index}")
    assert vm.max_chain_depth == 4
    assert len(vm.snapshots) == 3


def test_empty_vm_chain_depth_zero():
    assert make_vm().max_chain_depth == 0
