"""Integration tests for the cloud director."""

import dataclasses

import pytest

from repro.cloud import DeployRequest, QuotaExceeded, VAppState
from repro.cloud.director import DEPLOY_RETRY_POLICY
from repro.datacenter import PowerState, VirtualMachine


def request(cloud, item="web-linked", count=3, name="app1"):
    return DeployRequest(
        org=cloud.org, item=cloud.catalog.get(item), vm_count=count, vapp_name=name
    )


def test_deploy_runs_all_vms(cloud):
    vapp = cloud.run_deploy(request(cloud, count=4))
    assert vapp.state == VAppState.RUNNING
    assert vapp.vm_count == 4
    assert all(vm.power_state == PowerState.ON for vm in vapp.vms)
    assert vapp.deploy_latency > 0


def test_deploy_spreads_across_hosts(cloud):
    # Least-loaded placement: each deploy lands on a host no earlier one used.
    vapps = [cloud.run_deploy(request(cloud, count=1, name=f"app{n}")) for n in range(4)]
    hosts = {vm.host for vapp in vapps for vm in vapp.vms}
    assert len(hosts) == 4


def test_deploy_charges_quota(cloud):
    cloud.run_deploy(request(cloud, count=3))
    assert cloud.org.used_vms == 3


def test_deploy_over_quota_raises_before_operations(cloud):
    cloud.org.quota_vms = 2
    tasks_before = len(cloud.server.tasks.tasks)

    def proc():
        with pytest.raises(QuotaExceeded):
            yield from cloud.director.deploy(request(cloud, count=3))
        return True

    process = cloud.sim.spawn(proc())
    assert cloud.sim.run(until=process) is True
    assert len(cloud.server.tasks.tasks) == tasks_before


def test_vm_count_validation(cloud):
    with pytest.raises(ValueError):
        request(cloud, count=0)


def test_full_item_charges_template_size(cloud):
    cloud.run_deploy(request(cloud, item="web-full", count=2))
    assert cloud.org.used_storage_gb == pytest.approx(
        2 * cloud.template.total_disk_gb
    )


def test_linked_deploy_moves_no_bytes(cloud):
    cloud.run_deploy(request(cloud, count=5))
    assert cloud.server.copy_engine.total_bytes_written == 0


def test_delete_destroys_and_credits(cloud):
    vapp = cloud.run_deploy(request(cloud, count=3))
    vm_count_before = len(cloud.server.inventory.all(VirtualMachine))
    cloud.run_delete(vapp)
    assert vapp.state == VAppState.DELETED
    assert cloud.org.used_vms == 0
    assert len(cloud.server.inventory.all(VirtualMachine)) == vm_count_before - 3


def test_delete_twice_rejected(cloud):
    vapp = cloud.run_deploy(request(cloud, count=1))
    cloud.run_delete(vapp)
    with pytest.raises(ValueError, match="already deleted"):
        cloud.run_delete(vapp)


def test_partial_failure_from_host_fault_without_retries(cloud):
    # Every member lands on hosts[0]; a flaky agent there drops some of
    # their calls, and with retries disabled those members fail.
    cloud.director.retry_policy = dataclasses.replace(DEPLOY_RETRY_POLICY, max_attempts=1)
    cloud.server.agent(cloud.hosts[0]).faults.set_drop("flaky", 0.1)
    vapp = cloud.run_deploy(request(cloud, count=4))
    assert vapp.state == VAppState.PARTIAL
    assert 0 < vapp.vm_count < 4
    assert cloud.org.used_vms == vapp.vm_count
    assert cloud.director.vm_retries == 0


def test_retry_masks_transient_host_fault(cloud):
    """Default behaviour: a host outage is absorbed by re-placement."""
    cloud.server.agent(cloud.hosts[0]).faults.block("outage")
    vapp = cloud.run_deploy(request(cloud, count=4))
    assert vapp.state == VAppState.RUNNING
    assert vapp.vm_count == 4
    # Every member first tried hosts[0]; each retry carries its suffix.
    assert cloud.director.vm_retries == 4
    assert all("-r1" in vm.name for vm in vapp.vms)


def test_retry_excludes_failed_host(cloud):
    cloud.server.agent(cloud.hosts[0]).faults.block("outage")
    vapp = cloud.run_deploy(request(cloud, count=1))
    assert vapp.state == VAppState.RUNNING
    (vm,) = vapp.vms
    assert "-r1" in vm.name
    # Least-loaded would re-pick the still-empty hosts[0]; the exclusion
    # forces it elsewhere.
    assert vm.host is not cloud.hosts[0]


def test_retry_backs_off_before_resubmission(cloud):
    from repro.controlplane.resilience import RetryPolicy
    from repro.faults import TransientError

    cloud.director.retry_policy = RetryPolicy(
        max_attempts=2, base_backoff_s=50.0, jitter=0.0, max_backoff_s=50.0,
        retry_on=(TransientError,),
    )
    times = []
    original = cloud.server.submit

    def recording_submit(operation, **kw):
        times.append(cloud.sim.now)
        return original(operation, **kw)

    cloud.server.submit = recording_submit
    cloud.server.agent(cloud.hosts[0]).faults.block("outage")
    vapp = cloud.run_deploy(request(cloud, count=1))
    assert vapp.state == VAppState.RUNNING
    assert len(times) == 2
    # The retry waited out the policy's 50s backoff, not resubmitted hot.
    assert times[1] - times[0] >= 50.0


def test_copy_failure_excludes_datastore_on_retry(cloud):
    # Full clones move bytes: a copy fault is pinned to the datastore, so
    # the retry must re-place on a different datastore, not a new host.
    first = cloud.director.placement.choose_datastore(cloud.cluster, 40.0)
    cloud.server.copy_engine.faults.block("outage", key=first.entity_id)
    vapp = cloud.run_deploy(request(cloud, item="web-full", count=1))
    assert vapp.state == VAppState.RUNNING
    (vm,) = vapp.vms
    assert cloud.director.vm_retries == 1
    # Least-loaded picked ``first``; the retry steered away.
    assert all(disk.datastore is not first for disk in vm.disks)


def test_breaker_engaged_host_avoided(cloud):
    from repro.controlplane.resilience import BreakerPolicy, CircuitBreaker

    agent = cloud.server.agent(cloud.hosts[0])
    agent.breaker = CircuitBreaker(
        cloud.sim, BreakerPolicy(failure_threshold=1, cooldown_s=1e9), name="esx00"
    )
    agent.breaker.record_failure()  # trip it
    vapp = cloud.run_deploy(request(cloud, count=1))
    (vm,) = vapp.vms
    # Steered around the tripped host up front: no failed attempt at all.
    assert vm.host is not cloud.hosts[0]
    assert cloud.director.vm_retries == 0


def test_running_vapps_listing(cloud):
    first = cloud.run_deploy(request(cloud, count=1, name="a"))
    second = cloud.run_deploy(request(cloud, count=1, name="b"))
    cloud.run_delete(first)
    assert cloud.director.running_vapps() == [second]


def test_running_vapps_index_matches_full_scan(cloud):
    """The live index answers like a filter over every vApp ever deployed."""

    def full_scan():
        return [
            vapp for vapp in cloud.director.vapps
            if vapp.state in (VAppState.RUNNING, VAppState.PARTIAL)
        ]

    def check():
        assert cloud.director.running_vapps() == full_scan()
        live = list(cloud.director._live.values())
        assert all(
            vapp.state not in (VAppState.DELETING, VAppState.DELETED) for vapp in live
        )
        assert live == [
            vapp for vapp in cloud.director.vapps
            if vapp.state not in (VAppState.DELETING, VAppState.DELETED)
        ]

    running = cloud.run_deploy(request(cloud, count=2, name="running"))
    # Room for one more 40 GB full clone per datastore: of three, some
    # deploy (PARTIAL); with the space then gone, the next request finds
    # none (FAILED).
    for datastore in cloud.datastores:
        datastore.capacity_gb = datastore.used_gb + 50.0
    partial = cloud.run_deploy(request(cloud, item="web-full", count=3, name="partial"))
    for datastore in cloud.datastores:
        datastore.capacity_gb = datastore.used_gb
    failed = cloud.run_deploy(request(cloud, item="web-full", count=1, name="failed"))
    assert (running.state, partial.state, failed.state) == (
        VAppState.RUNNING, VAppState.PARTIAL, VAppState.FAILED,
    )
    check()
    # Mid-delete the vApp is DELETING and already out of the index.
    process = cloud.sim.spawn(cloud.director.delete(running))
    cloud.sim.run(until=cloud.sim.now + 1e-6)
    assert running.state == VAppState.DELETING
    check()
    cloud.sim.run(until=process)
    assert running.state == VAppState.DELETED
    check()
    cloud.run_delete(failed)
    check()
    assert cloud.director.running_vapps() == [partial]


def test_live_index_does_not_grow_with_deploy_delete_cycles(cloud):
    keep = cloud.run_deploy(request(cloud, count=1, name="keep"))
    for cycle in range(12):
        vapp = cloud.run_deploy(request(cloud, count=1, name=f"cycle{cycle}"))
        cloud.run_delete(vapp)
    assert len(cloud.director.vapps) == 13
    assert list(cloud.director._live.values()) == [keep]
    assert cloud.director.running_vapps() == [keep]


def test_deploy_latency_percentiles_available(cloud):
    for index in range(3):
        cloud.run_deploy(request(cloud, count=1, name=f"app{index}"))
    assert cloud.director.deploy_latency_p(0.5) > 0
