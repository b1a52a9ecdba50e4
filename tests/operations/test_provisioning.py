"""Tests for clone and deploy operations — the paper's pivotal asymmetry."""

import pytest

from repro.controlplane import TaskState
from repro.datacenter import PowerState, VirtualMachine
from repro.operations import CloneVM, DeployFromTemplate, OperationError, PowerOn

from tests.operations.conftest import SmallCloud


def clone_op(cloud, linked, name="clone-1"):
    return CloneVM(cloud.template, name, cloud.hosts[0], cloud.datastores[1], linked=linked)


def test_full_clone_creates_vm_with_full_backing(cloud):
    task = cloud.run_op(clone_op(cloud, linked=False))
    assert task.state == TaskState.SUCCESS
    vm = task.result
    assert isinstance(vm, VirtualMachine)
    assert vm.max_chain_depth == 1
    assert vm.host is cloud.hosts[0]
    assert vm.total_disk_gb == cloud.template.total_disk_gb
    assert sum(disk.backing.size_gb for disk in vm.disks) == pytest.approx(
        cloud.template.total_disk_gb
    )
    # Bytes actually moved on the data plane.
    assert cloud.server.copy_engine.total_bytes_written > 0


def test_linked_clone_moves_no_data(cloud):
    task = cloud.run_op(clone_op(cloud, linked=True))
    vm = task.result
    assert vm.max_chain_depth == 2
    assert cloud.server.copy_engine.total_bytes_written == 0
    assert task.plane_seconds("data") == 0.0
    assert task.plane_seconds("control") > 0.0


def test_full_clone_dominated_by_data_plane(cloud):
    task = cloud.run_op(clone_op(cloud, linked=False))
    assert task.plane_seconds("data") > task.plane_seconds("control")


def test_linked_clone_much_faster_than_full(cloud):
    linked = cloud.run_op(clone_op(cloud, linked=True, name="linked"))
    full = cloud.run_op(clone_op(cloud, linked=False, name="full"))
    assert linked.latency < full.latency / 5


def test_clone_with_power_on(cloud):
    vm = cloud.run_op(clone_op(cloud, linked=True)).result
    assert vm.power_state == PowerState.OFF
    cloud.run_op(PowerOn(vm))
    assert vm.power_state == PowerState.ON


def test_clone_registers_in_inventory(cloud):
    before = len(cloud.server.inventory.all(VirtualMachine))
    cloud.run_op(clone_op(cloud, linked=True))
    assert len(cloud.server.inventory.all(VirtualMachine)) == before + 1


def test_clone_from_unusable_host_fails(cloud):
    from repro.datacenter import HostState

    cloud.hosts[0].state = HostState.MAINTENANCE
    process = cloud.server.submit(clone_op(cloud, linked=True))
    with pytest.raises(OperationError, match="unusable"):
        cloud.sim.run(until=process)
    assert len(cloud.server.tasks.failed()) == 1


def test_clone_diskless_source_fails(cloud):
    bare = cloud.server.inventory.create(VirtualMachine, name="bare")
    op = CloneVM(bare, "x", cloud.hosts[0], cloud.datastores[0], linked=True)
    process = cloud.server.submit(op)
    with pytest.raises(OperationError, match="no disks"):
        cloud.sim.run(until=process)


def test_linked_clone_of_writable_vm_pays_anchor_snapshot(cloud):
    # First materialize a full clone (writable VM), then linked-clone it.
    source = cloud.run_op(clone_op(cloud, linked=False, name="writable")).result
    task = cloud.run_op(
        CloneVM(source, "second", cloud.hosts[1], cloud.datastores[1], linked=True)
    )
    phase_names = [name for name, _, _ in task.phases]
    assert "anchor_snapshot" in phase_names
    assert len(source.snapshots) == 1


def test_second_linked_clone_reuses_anchor(cloud):
    source = cloud.run_op(clone_op(cloud, linked=False, name="writable")).result
    cloud.run_op(CloneVM(source, "c1", cloud.hosts[1], cloud.datastores[1], linked=True))
    task = cloud.run_op(
        CloneVM(source, "c2", cloud.hosts[2], cloud.datastores[1], linked=True)
    )
    phase_names = [name for name, _, _ in task.phases]
    assert "anchor_snapshot" not in phase_names
    assert len(source.snapshots) == 1


def test_template_linked_clone_needs_no_snapshot(cloud):
    task = cloud.run_op(clone_op(cloud, linked=True))
    phase_names = [name for name, _, _ in task.phases]
    assert "anchor_snapshot" not in phase_names
    assert cloud.template.snapshots == []


def test_concurrent_linked_clones_share_template_anchor(cloud):
    processes = [
        cloud.server.submit(clone_op(cloud, linked=True, name=f"c{i}"))
        for i in range(10)
    ]
    cloud.sim.run()
    assert all(process.ok for process in processes)
    anchor = cloud.template.disks[0].backing
    assert anchor.children == 10


class TestDeployFromTemplate:
    def test_deploy_powers_on(self, cloud):
        task = cloud.run_op(
            DeployFromTemplate(
                cloud.template, "web-1", cloud.hosts[0], cloud.datastores[1], linked=True
            )
        )
        vm = task.result
        assert vm.power_state == PowerState.ON
        phase_names = [name for name, _, _ in task.phases]
        assert "customize_host" in phase_names
        assert "power_on" in phase_names

    def test_deploy_requires_template(self, cloud):
        non_template = cloud.server.inventory.create(VirtualMachine, name="vm")
        with pytest.raises(OperationError, match="not a template"):
            DeployFromTemplate(
                non_template, "x", cloud.hosts[0], cloud.datastores[0], linked=True
            )

    def test_deploy_full_moves_template_bytes(self, cloud):
        cloud.run_op(
            DeployFromTemplate(
                cloud.template, "db-1", cloud.hosts[0], cloud.datastores[1], linked=False
            )
        )
        written_gb = cloud.server.copy_engine.total_bytes_written / 1024**3
        assert written_gb == pytest.approx(cloud.template.total_disk_gb)


def test_clone_storm_all_succeed_and_depths_bounded():
    cloud = SmallCloud(seed=7)
    count = 40
    for index in range(count):
        cloud.server.submit(clone_op(cloud, linked=True, name=f"storm-{index}"))
    cloud.sim.run()
    done = cloud.server.tasks.succeeded()
    assert len(done) == count
    assert all(task.result.max_chain_depth == 2 for task in done)
