"""Unit tests for the placement engine."""

import pytest

from repro.cloud import PlacementEngine, PlacementError
from repro.datacenter import Cluster, Datastore, Host, HostState, VirtualMachine


@pytest.fixture
def cluster():
    cluster = Cluster(entity_id="cluster-1", name="gold")
    shared = Datastore(entity_id="ds-1", name="lun0", capacity_gb=1000.0)
    for index in range(3):
        host = Host(entity_id=f"host-{index}", name=f"esx{index:02d}")
        cluster.add_host(host)
        host.mount(shared)
    return cluster


def test_least_loaded_prefers_empty_host(cluster):
    engine = PlacementEngine()
    vm = VirtualMachine(entity_id="vm-1", name="busy")
    vm.place_on(cluster.hosts[0])
    chosen = engine.choose_host(cluster)
    assert chosen is not cluster.hosts[0]


def test_no_usable_hosts_raises(cluster):
    for host in cluster.hosts:
        host.state = HostState.MAINTENANCE
    with pytest.raises(PlacementError, match="no usable hosts"):
        PlacementEngine().choose_host(cluster)


def test_datastore_needs_free_space(cluster):
    engine = PlacementEngine()
    datastore = next(iter(cluster.shared_datastores()))
    datastore.allocate(995.0)
    with pytest.raises(PlacementError, match="GB free"):
        engine.choose_datastore(cluster, required_gb=50.0)


def test_datastore_least_loaded_prefers_most_free(cluster):
    extra = Datastore(entity_id="ds-2", name="lun1", capacity_gb=1000.0)
    for host in cluster.hosts:
        host.mount(extra)
    first = next(ds for ds in cluster.shared_datastores() if ds.entity_id == "ds-1")
    first.allocate(500.0)
    chosen = PlacementEngine().choose_datastore(cluster, required_gb=10.0)
    assert chosen is extra


def test_non_shared_datastore_excluded(cluster):
    private = Datastore(entity_id="ds-2", name="local", capacity_gb=1000.0)
    cluster.hosts[0].mount(private)
    chosen = PlacementEngine().choose_datastore(cluster, required_gb=10.0)
    assert chosen.entity_id == "ds-1"


def test_choose_returns_pair(cluster):
    host, datastore = PlacementEngine().choose(cluster, required_gb=1.0)
    assert host in cluster.hosts
    assert datastore in cluster.shared_datastores()


def test_exclude_datastores_redirects(cluster):
    smaller = Datastore(entity_id="ds-2", name="lun1", capacity_gb=500.0)
    for host in cluster.hosts:
        host.mount(smaller)
    engine = PlacementEngine()
    # ds-1 is most-free and would win every round; excluding it redirects.
    assert engine.choose_datastore(cluster, 10.0).entity_id == "ds-1"
    chosen = engine.choose_datastore(cluster, 10.0, exclude_datastores={"ds-1"})
    assert chosen.entity_id == "ds-2"


def test_datastore_exclusion_is_soft(cluster):
    # Unlike host exclusion, excluding every datastore falls back to the
    # excluded candidates rather than failing placement outright.
    chosen = PlacementEngine().choose_datastore(
        cluster, 10.0, exclude_datastores={"ds-1"}
    )
    assert chosen.entity_id == "ds-1"
