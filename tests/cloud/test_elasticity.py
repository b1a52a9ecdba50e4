"""Tests for elasticity policies triggering reconfiguration operations."""

import pytest

from repro.cloud import DeployRequest, ElasticityPolicy, SparePool
from repro.datacenter import Host


def make_policy(cloud, spare_hosts=2, **kw):
    spares = SparePool(
        hosts=[
            Host(entity_id=f"host-spare-{i}", name=f"spare{i:02d}")
            for i in range(spare_hosts)
        ]
    )
    defaults = dict(check_interval_s=60.0, vms_per_host_high=1.0)
    defaults.update(kw)
    return ElasticityPolicy(cloud.server, cloud.cluster, spares, **defaults)


def run_check(cloud, policy):
    box = {}

    def proc():
        box["actions"] = yield from policy.check_once()

    process = cloud.sim.spawn(proc())
    cloud.sim.run(until=process)
    return box["actions"]


def deploy(cloud, count, name="app"):
    return cloud.run_deploy(
        DeployRequest(
            org=cloud.org,
            item=cloud.catalog.get("web-linked"),
            vm_count=count,
            vapp_name=name,
        )
    )


def test_no_action_below_watermarks(cloud):
    policy = make_policy(cloud, vms_per_host_high=100.0)
    assert run_check(cloud, policy) == []
    assert policy.actions == []


def test_add_host_when_vm_density_high(cloud):
    deploy(cloud, count=8)  # 2 VMs/host across 4 hosts
    policy = make_policy(cloud, vms_per_host_high=1.0)
    hosts_before = len(cloud.cluster.hosts)
    actions = run_check(cloud, policy)
    assert actions == ["add_host"]
    assert len(cloud.cluster.hosts) == hosts_before + 1
    new_host = cloud.cluster.hosts[-1]
    # The joined host mounted every shared datastore.
    assert set(new_host.datastores) >= set(cloud.datastores)


def test_add_host_exhausts_spare_pool(cloud):
    deploy(cloud, count=8)
    policy = make_policy(cloud, spare_hosts=1, vms_per_host_high=0.5)
    assert run_check(cloud, policy) == ["add_host"]
    assert policy.spares.take_host() is None
    # Next round: still above watermark but no spares left.
    assert run_check(cloud, policy) == []


def test_add_datastore_when_space_low(cloud):
    for datastore in cloud.datastores:
        datastore.allocate(datastore.free_gb * 0.95)
    policy = make_policy(cloud, vms_per_host_high=1000.0, datastore_free_fraction_low=0.10)
    actions = run_check(cloud, policy)
    assert actions == ["add_datastore"]
    # Mounted everywhere → part of the shared set now.
    shared_names = {ds.name for ds in cloud.cluster.shared_datastores()}
    assert any(name.startswith("elastic-lun") for name in shared_names)


def test_watcher_fires_periodically(cloud):
    deploy(cloud, count=8)
    policy = make_policy(cloud, check_interval_s=60.0, vms_per_host_high=1.0)
    policy.start()
    cloud.sim.run(until=cloud.sim.now + 200.0)
    assert policy.metrics.counter("add_host").value >= 1
    assert policy.actions


def test_start_twice_rejected(cloud):
    policy = make_policy(cloud)
    policy.start()
    with pytest.raises(RuntimeError):
        policy.start()


def test_interval_validation(cloud):
    with pytest.raises(ValueError):
        make_policy(cloud, check_interval_s=0.0)


def test_reconfig_rate_tracks_provisioning_rate(cloud):
    """Claim 4's mechanism: more provisioning → more reconfiguration ops."""
    policy = make_policy(cloud, spare_hosts=2, vms_per_host_high=2.0)
    deploy(cloud, count=4, name="slow")  # 1 VM/host: below watermark
    assert run_check(cloud, policy) == []
    deploy(cloud, count=12, name="burst")  # 4 VMs/host: above watermark
    assert run_check(cloud, policy) == ["add_host"]
