"""Unit + property tests for linked-clone chain mechanics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datacenter import Datastore, DiskBacking, VirtualDisk, VirtualMachine
from repro.storage import (
    LinkedCloneError,
    create_linked_backing,
    ensure_clone_anchor,
)
from repro.storage.linked_clone import INITIAL_DELTA_GB, MAX_CHAIN_DEPTH


def make_datastore(capacity=100000.0):
    return Datastore(entity_id="ds-1", name="lun", capacity_gb=capacity)


def make_template(datastore, size_gb=40.0):
    vm = VirtualMachine(entity_id="vm-t", name="template", is_template=True)
    backing = DiskBacking(datastore=datastore, size_gb=size_gb, read_only=True)
    vm.attach_disk(VirtualDisk(label="disk-0", backing=backing, provisioned_gb=size_gb))
    return vm


def test_template_anchors_directly_without_snapshot():
    datastore = make_datastore()
    template = make_template(datastore)
    anchors = ensure_clone_anchor(template)
    assert anchors == [template.disks[0].backing]
    assert template.snapshots == []


def test_writable_vm_gets_snapshotted_for_anchor():
    datastore = make_datastore()
    vm = VirtualMachine(entity_id="vm-1", name="vm")
    backing = DiskBacking(datastore=datastore, size_gb=40.0)
    vm.attach_disk(VirtualDisk(label="disk-0", backing=backing, provisioned_gb=40.0))
    anchors = ensure_clone_anchor(vm)
    assert len(vm.snapshots) == 1
    assert anchors[0] is backing
    assert backing.read_only


def test_second_clone_reuses_existing_anchor():
    datastore = make_datastore()
    vm = VirtualMachine(entity_id="vm-1", name="vm")
    backing = DiskBacking(datastore=datastore, size_gb=40.0)
    vm.attach_disk(VirtualDisk(label="disk-0", backing=backing, provisioned_gb=40.0))
    first = ensure_clone_anchor(vm)
    second = ensure_clone_anchor(vm)
    assert first == second
    assert len(vm.snapshots) == 1


def test_diskless_source_rejected():
    vm = VirtualMachine(entity_id="vm-1", name="empty")
    with pytest.raises(LinkedCloneError):
        ensure_clone_anchor(vm)


def test_create_linked_backing_allocates_delta_only():
    datastore = make_datastore()
    template = make_template(datastore)
    anchor = template.disks[0].backing
    before = datastore.used_gb
    delta = create_linked_backing(anchor, datastore)
    assert delta.parent is anchor
    assert datastore.used_gb - before == pytest.approx(INITIAL_DELTA_GB)
    assert anchor.children == 1


def test_linked_backing_requires_read_only_anchor():
    datastore = make_datastore()
    writable = DiskBacking(datastore=datastore, size_gb=40.0)
    with pytest.raises(LinkedCloneError):
        create_linked_backing(writable, datastore)


def test_chain_depth_limit_enforced():
    datastore = make_datastore()
    backing = DiskBacking(datastore=datastore, size_gb=1.0, read_only=True)
    for _ in range(MAX_CHAIN_DEPTH - 1):
        backing = create_linked_backing(backing, datastore)
        backing.read_only = True
    with pytest.raises(LinkedCloneError):
        create_linked_backing(backing, datastore)


def test_delta_may_live_on_other_datastore():
    source_ds = make_datastore()
    other_ds = Datastore(entity_id="ds-2", name="lun2", capacity_gb=1000.0)
    template = make_template(source_ds)
    delta = create_linked_backing(template.disks[0].backing, other_ds)
    assert delta.datastore is other_ds
    assert other_ds.used_gb == pytest.approx(INITIAL_DELTA_GB)


@given(fanout=st.integers(min_value=1, max_value=50))
@settings(max_examples=30, deadline=None)
def test_fanout_children_count_matches_clones(fanout):
    datastore = make_datastore(capacity=1e6)
    template = make_template(datastore)
    anchor = template.disks[0].backing
    for _ in range(fanout):
        create_linked_backing(anchor, datastore)
    assert anchor.children == fanout


@given(depth=st.integers(min_value=1, max_value=MAX_CHAIN_DEPTH - 1))
@settings(max_examples=20, deadline=None)
def test_chain_depth_monotone_in_links(depth):
    datastore = make_datastore(capacity=1e6)
    backing = DiskBacking(datastore=datastore, size_gb=1.0, read_only=True)
    depths = [backing.chain_depth]
    for _ in range(depth):
        backing = create_linked_backing(backing, datastore)
        backing.read_only = True
        depths.append(backing.chain_depth)
    assert depths == sorted(depths)
    assert depths[-1] == depth + 1
