"""Tests for HA: host failure, restart storms, failure injection."""

import pytest

from repro.cloud import DeployRequest, HAManager
from repro.datacenter import HostState, PowerState


def deploy(cloud, count, name="app"):
    return cloud.run_deploy(
        DeployRequest(
            org=cloud.org,
            item=cloud.catalog.get("web-linked"),
            vm_count=count,
            vapp_name=name,
        )
    )


def run_failure(cloud, ha, host):
    box = {}

    def proc():
        box["counts"] = yield from ha.fail_host(host)

    process = cloud.sim.spawn(proc())
    cloud.sim.run(until=process)
    return box["counts"]


def test_failed_host_vms_restart_elsewhere(cloud):
    vapp = deploy(cloud, count=4)
    victim_host = vapp.vms[0].host
    victims = [vm for vm in vapp.vms if vm.host is victim_host]
    ha = HAManager(cloud.server, cloud.cluster)
    counts = run_failure(cloud, ha, victim_host)
    assert victim_host.state == HostState.DISCONNECTED
    assert counts["restarted"] == len(victims)
    for vm in victims:
        assert vm.host is not victim_host
        assert vm.host.is_usable
        assert vm.power_state == PowerState.ON


def test_restart_latency_recorded(cloud):
    vapp = deploy(cloud, count=4)
    ha = HAManager(cloud.server, cloud.cluster)
    run_failure(cloud, ha, vapp.vms[0].host)
    recorder = ha.restart_latency
    assert recorder.count >= 1
    assert recorder.percentile(0.5) > 0


def test_powered_off_vms_stay_stranded(cloud):
    from repro.operations import PowerOff

    vapp = deploy(cloud, count=4)
    vm = vapp.vms[0]
    process = cloud.server.submit(PowerOff(vm))
    cloud.sim.run(until=process)
    ha = HAManager(cloud.server, cloud.cluster)
    counts = run_failure(cloud, ha, vm.host)
    assert counts["stranded_off"] >= 1
    assert vm.power_state == PowerState.OFF


def test_fail_host_twice_rejected(cloud):
    ha = HAManager(cloud.server, cloud.cluster)
    run_failure(cloud, ha, cloud.hosts[0])
    with pytest.raises(ValueError, match="already failed"):
        run_failure(cloud, ha, cloud.hosts[0])


def test_fail_foreign_host_rejected(cloud):
    from repro.datacenter import Host

    ha = HAManager(cloud.server, cloud.cluster)
    stranger = Host(entity_id="host-x", name="stranger")
    with pytest.raises(ValueError, match="not in cluster"):
        run_failure(cloud, ha, stranger)


def test_recover_host_rejoins(cloud):
    ha = HAManager(cloud.server, cloud.cluster)
    run_failure(cloud, ha, cloud.hosts[0])
    ha.recover_host(cloud.hosts[0])
    assert cloud.hosts[0].is_usable
    with pytest.raises(ValueError, match="not failed"):
        ha.recover_host(cloud.hosts[0])


def test_restart_storm_goes_through_control_plane(cloud):
    """The restarts are management tasks, not free actions."""
    vapp = deploy(cloud, count=8)
    tasks_before = len(cloud.server.tasks.tasks)
    ha = HAManager(cloud.server, cloud.cluster)
    counts = run_failure(cloud, ha, vapp.vms[0].host)
    new_tasks = len(cloud.server.tasks.tasks) - tasks_before
    assert new_tasks == counts["restarted"]
