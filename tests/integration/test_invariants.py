"""System-wide invariant checks over randomized end-to-end runs.

These fuzz the full stack (driver → director → operations → control plane
→ storage) across seeds and assert conservation laws that must hold no
matter what interleaving the workload produced.
"""

import dataclasses

import pytest

from repro.controlplane.task_manager import TaskState
from repro.datacenter import Datastore, Host, VirtualMachine
from repro.sim import RandomStreams, Simulator
from repro.workloads import CLOUD_A, WorkloadDriver
from repro.workloads.arrivals import Poisson


def run_fuzz(seed, duration=2400.0, rate=0.25):
    profile = dataclasses.replace(
        CLOUD_A,
        hosts=4,
        datastores=2,
        orgs=2,
        initial_vms_per_host=3,
        arrivals=Poisson(rate=rate),
    )
    sim = Simulator()
    driver = WorkloadDriver(sim, RandomStreams(seed), profile)
    driver.run(duration)
    return driver


@pytest.fixture(scope="module", params=[1, 2, 3, 4, 5])
def fuzzed(request):
    return run_fuzz(request.param)


def test_every_task_reached_a_terminal_state(fuzzed):
    for task in fuzzed.server.tasks.tasks:
        assert task.state in (TaskState.SUCCESS, TaskState.ERROR)
        assert task.finished_at is not None
        assert task.finished_at >= task.started_at >= task.submitted_at


def test_datastore_usage_within_bounds(fuzzed):
    for datastore in fuzzed.server.inventory.all(Datastore):
        assert 0.0 <= datastore.used_gb <= datastore.capacity_gb + 1e-6


def test_vm_host_bidirectional_consistency(fuzzed):
    for vm in fuzzed.server.inventory.all(VirtualMachine):
        if vm.host is not None:
            assert vm in vm.host.vms
    for host in fuzzed.server.inventory.all(Host):
        for vm in host.vms:
            assert vm.host is host


def test_no_destroyed_vm_remains_in_inventory(fuzzed):
    for vm in fuzzed.server.inventory.all(VirtualMachine):
        assert vm.destroyed_at is None


def test_backing_children_counts_non_negative(fuzzed):
    for vm in fuzzed.server.inventory.all(VirtualMachine):
        for disk in vm.disks:
            for backing in disk.backing.chain():
                assert backing.children >= 0
                assert backing.size_gb >= 0


def test_resources_fully_released(fuzzed):
    server = fuzzed.server
    assert server.cpu.in_use == 0
    assert server.cpu.queue_depth == 0
    assert server.database.pool.in_use == 0
    for agent in server.agents:
        assert agent.slots.in_use == 0
        assert agent.slots.queue_depth == 0
    assert server.tasks.dispatch.in_use == 0
    assert server.tasks.queue_depth == 0


def test_locks_all_idle(fuzzed):
    assert fuzzed.server.locks.held() == []


def test_org_accounting_never_negative(fuzzed):
    for org in fuzzed.orgs:
        assert org.used_vms >= 0
        assert org.used_storage_gb >= 0
        assert org.used_vms <= org.quota_vms


def test_trace_is_complete_and_ordered(fuzzed):
    trace = fuzzed.trace()
    assert len(trace) == len(fuzzed.server.tasks.tasks)
    ids = [record.task_id for record in trace]
    assert len(set(ids)) == len(ids)


def test_failure_rate_is_low_under_normal_operation(fuzzed):
    trace = fuzzed.trace()
    failures = sum(1 for record in trace if not record.success)
    # The driver avoids nonsensical targets, so failures should be rare
    # (races like power-on of a VM destroyed mid-queue).
    assert failures <= max(3, 0.05 * len(trace))
