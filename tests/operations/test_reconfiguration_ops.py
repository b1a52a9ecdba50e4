"""Tests for reconfiguration ops: rescan, add host, add datastore, network."""

import pytest

from repro.controlplane import TaskState
from repro.datacenter import Datastore, Host, HostState, Network
from repro.operations import (
    AddDatastore,
    AddHost,
    NetworkReconfig,
    OperationError,
    RescanDatastore,
)

from tests.operations.conftest import SmallCloud
from tests.scoped import scoped


def test_rescan_touches_every_mounting_host():
    cloud = SmallCloud(telemetry=True)
    task = cloud.run_op(RescanDatastore(cloud.datastores[0]))
    assert task.state == TaskState.SUCCESS
    assert task.result == len(cloud.hosts)
    for host in cloud.hosts:
        assert scoped(cloud.telemetry, f"vc-1.hostd.{host.entity_id}.calls") >= 1


def test_rescan_skips_unusable_hosts():
    cloud = SmallCloud(telemetry=True)
    cloud.hosts[0].state = HostState.MAINTENANCE
    task = cloud.run_op(RescanDatastore(cloud.datastores[0]))
    assert task.state == TaskState.SUCCESS
    assert scoped(cloud.telemetry, f"vc-1.hostd.{cloud.hosts[0].entity_id}.calls") == 0


def test_rescan_unmounted_datastore_fails(cloud):
    lonely = cloud.server.inventory.create(Datastore, name="lonely", capacity_gb=100.0)
    process = cloud.server.submit(RescanDatastore(lonely))
    with pytest.raises(OperationError, match="no hosts"):
        cloud.sim.run(until=process)


def test_rescan_cost_grows_with_host_count():
    """R-F6 shape: rescan latency grows with the number of mounting hosts."""

    def rescan_latency(host_count):
        cloud = SmallCloud(seed=5, hosts=host_count, datastores=1)
        task = cloud.run_op(RescanDatastore(cloud.datastores[0]))
        return task.latency

    small = rescan_latency(2)
    large = rescan_latency(32)
    # Fan-out is parallel per host, but DB topology writes grow linearly.
    assert large > small


def test_add_host_mounts_and_rescans(cloud):
    new_host = Host(entity_id="host-new", name="esx99")
    task = cloud.run_op(
        AddHost(new_host, cloud.cluster, cloud.datastores, networks=[cloud.network])
    )
    assert task.state == TaskState.SUCCESS
    assert new_host in cloud.cluster.hosts
    assert new_host.entity_id in cloud.server.inventory
    assert set(new_host.datastores) == set(cloud.datastores)
    assert cloud.network in new_host.networks
    phase_names = [name for name, _, _ in task.phases]
    assert "connect_handshake" in phase_names
    assert "initial_rescan" in phase_names
    assert "network_config" in phase_names


def test_add_host_already_present_fails(cloud):
    process = cloud.server.submit(AddHost(cloud.hosts[0], cloud.cluster, []))
    with pytest.raises(OperationError, match="already in inventory"):
        cloud.sim.run(until=process)


def test_add_host_cost_grows_with_datastore_count():
    def add_latency(datastore_count):
        cloud = SmallCloud(seed=9, hosts=2, datastores=datastore_count)
        new_host = Host(entity_id="host-new", name="esx99")
        task = cloud.run_op(AddHost(new_host, cloud.cluster, cloud.datastores))
        return task.latency

    # Rescans are bounded by per-host agent slots, so more datastores mean
    # more serialized rescan batches.
    assert add_latency(32) > add_latency(1)


def test_add_datastore_mounts_on_all_hosts(cloud):
    new_ds = Datastore(entity_id="ds-new", name="lun99", capacity_gb=5000.0)
    task = cloud.run_op(AddDatastore(new_ds, cloud.hosts))
    assert task.state == TaskState.SUCCESS
    for host in cloud.hosts:
        assert new_ds in host.datastores
    assert new_ds.entity_id in cloud.server.inventory


def test_add_datastore_without_hosts_fails(cloud):
    new_ds = Datastore(entity_id="ds-new", name="lun99", capacity_gb=5000.0)
    process = cloud.server.submit(AddDatastore(new_ds, []))
    with pytest.raises(OperationError, match="no hosts"):
        cloud.sim.run(until=process)


def test_network_reconfig_pushes_to_cluster(cloud):
    tenant_net = Network(entity_id="net-new", name="tenant-42")
    cloud.server.inventory.register(tenant_net)
    task = cloud.run_op(NetworkReconfig(cloud.cluster, tenant_net))
    assert task.state == TaskState.SUCCESS
    for host in cloud.cluster.usable_hosts:
        assert tenant_net in host.networks


def test_network_reconfig_empty_cluster_fails(cloud):
    from repro.datacenter import Cluster

    empty = cloud.server.inventory.create(Cluster, name="empty")
    process = cloud.server.submit(NetworkReconfig(empty, cloud.network))
    with pytest.raises(OperationError, match="no usable hosts"):
        cloud.sim.run(until=process)
