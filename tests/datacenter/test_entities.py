"""Unit tests for infrastructure entities."""

import pytest

from repro.datacenter import Cluster, Datacenter, Datastore, Host, HostState, Network
from repro.datacenter.entities import CapacityError


def make_host(n=1):
    return Host(entity_id=f"host-{n}", name=f"esx{n:02d}")


def make_datastore(n=1, capacity=1000.0):
    return Datastore(entity_id=f"ds-{n}", name=f"lun{n:02d}", capacity_gb=capacity)


def test_entity_identity_is_by_id():
    a = make_host(1)
    b = Host(entity_id="host-1", name="different-name")
    assert a == b
    assert hash(a) == hash(b)
    assert a != make_host(2)


def test_datastore_allocate_and_reclaim():
    datastore = make_datastore(capacity=100.0)
    datastore.allocate(30.0)
    assert datastore.free_gb == pytest.approx(70.0)
    datastore.reclaim(10.0)
    assert datastore.used_gb == pytest.approx(20.0)


def test_datastore_over_allocation_raises():
    datastore = make_datastore(capacity=10.0)
    with pytest.raises(CapacityError):
        datastore.allocate(11.0)


def test_datastore_rejects_negative_amounts():
    datastore = make_datastore()
    with pytest.raises(ValueError):
        datastore.allocate(-1.0)
    with pytest.raises(ValueError):
        datastore.reclaim(-1.0)


def test_datastore_reclaim_floors_at_zero():
    datastore = make_datastore()
    datastore.allocate(5.0)
    datastore.reclaim(50.0)
    assert datastore.used_gb == 0.0


def test_host_mount_is_bidirectional():
    host = make_host()
    datastore = make_datastore()
    host.mount(datastore)
    assert datastore in host.datastores
    assert host in datastore.hosts


def test_host_usability_follows_state():
    host = make_host()
    assert host.is_usable
    host.state = HostState.MAINTENANCE
    assert not host.is_usable
    host.state = HostState.DISCONNECTED
    assert not host.is_usable


def test_cluster_add_host():
    cluster = Cluster(entity_id="cluster-1", name="gold")
    host = make_host()
    cluster.add_host(host)
    assert host.cluster is cluster
    assert cluster.usable_hosts == [host]
    with pytest.raises(ValueError):
        cluster.add_host(host)


def test_cluster_shared_datastores_intersection():
    cluster = Cluster(entity_id="cluster-1", name="gold")
    ds_shared = make_datastore(1)
    ds_local = make_datastore(2)
    for n in range(2):
        host = make_host(n)
        cluster.add_host(host)
        host.mount(ds_shared)
    cluster.hosts[0].mount(ds_local)
    assert cluster.shared_datastores() == [ds_shared]


def test_cluster_shared_datastores_skips_maintenance_hosts():
    cluster = Cluster(entity_id="cluster-1", name="gold")
    ds = make_datastore()
    healthy = make_host(1)
    broken = make_host(2)
    cluster.add_host(healthy)
    cluster.add_host(broken)
    healthy.mount(ds)
    broken.state = HostState.MAINTENANCE
    assert cluster.shared_datastores() == [ds]


def test_cluster_shared_datastores_in_entity_id_order():
    cluster = Cluster(entity_id="cluster-1", name="gold")
    datastores = [make_datastore(n) for n in (3, 10, 1, 2)]
    for n in range(2):
        host = make_host(n)
        cluster.add_host(host)
        for datastore in reversed(datastores):
            host.mount(datastore)
    ids = [datastore.entity_id for datastore in cluster.shared_datastores()]
    assert ids == ["ds-1", "ds-10", "ds-2", "ds-3"]


def test_cluster_shared_datastores_empty_cluster():
    cluster = Cluster(entity_id="cluster-1", name="empty")
    assert cluster.shared_datastores() == []


def test_datacenter_aggregates_hosts_and_vms():
    datacenter = Datacenter(entity_id="dc-1", name="dc")
    cluster = Cluster(entity_id="cluster-1", name="gold")
    datacenter.add_cluster(cluster)
    host = make_host()
    cluster.add_host(host)
    assert datacenter.hosts == [host]
    assert datacenter.vms == []


def test_network_defaults():
    network = Network(entity_id="net-1", name="vm-net")
    assert network.vlan == 0
