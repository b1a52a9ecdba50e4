"""Tests for the DRS-style load balancer."""

import pytest

from repro.cloud import LoadBalancer
from repro.datacenter import PowerState, VirtualDisk, VirtualMachine
from repro.operations.base import OperationType
from repro.storage.linked_clone import create_linked_backing

from tests.operations.conftest import SmallCloud


def seed_vms(cloud, per_host):
    """Place powered-on linked clones directly (no simulated provisioning)."""
    anchor = cloud.template.disks[0].backing
    count = 0
    for host, n in zip(cloud.hosts, per_host):
        for _ in range(n):
            count += 1
            vm = cloud.server.inventory.create(
                VirtualMachine, name=f"res-{count}", power_state=PowerState.ON
            )
            backing = create_linked_backing(anchor, cloud.datastores[0])
            vm.attach_disk(VirtualDisk(label="d0", backing=backing, provisioned_gb=40.0))
            vm.place_on(host)


def run_round(cloud, balancer):
    box = {}

    def proc():
        box["moves"] = yield from balancer.rebalance_once()

    process = cloud.sim.spawn(proc())
    cloud.sim.run(until=process)
    return box["moves"]


def test_imbalance_metric():
    cloud = SmallCloud(seed=3)
    seed_vms(cloud, [6, 2, 2, 2])
    balancer = LoadBalancer(cloud.server, cloud.cluster)
    assert balancer.imbalance() == 4


def test_balanced_cluster_no_moves():
    cloud = SmallCloud(seed=3)
    seed_vms(cloud, [3, 3, 3, 3])
    balancer = LoadBalancer(cloud.server, cloud.cluster)
    assert run_round(cloud, balancer) == 0
    assert cloud.server.tasks.tasks == []  # no migration was even submitted


def test_rebalance_moves_from_hot_to_cold():
    cloud = SmallCloud(seed=3)
    seed_vms(cloud, [8, 1, 4, 4])
    balancer = LoadBalancer(
        cloud.server, cloud.cluster, imbalance_threshold=2, max_moves_per_round=4
    )
    moves = run_round(cloud, balancer)
    assert moves >= 2
    loads = sorted(host.powered_on_vms for host in cloud.hosts)
    assert max(loads) - min(loads) < 7  # strictly better than 8-1


def test_plan_respects_move_cap():
    cloud = SmallCloud(seed=3)
    seed_vms(cloud, [10, 0, 5, 5])
    balancer = LoadBalancer(
        cloud.server, cloud.cluster, imbalance_threshold=1, max_moves_per_round=2
    )
    assert len(balancer.plan_moves()) == 2


def test_plan_is_pure():
    cloud = SmallCloud(seed=3)
    seed_vms(cloud, [8, 1, 4, 4])
    balancer = LoadBalancer(cloud.server, cloud.cluster)
    first = balancer.plan_moves()
    second = balancer.plan_moves()
    assert [(vm.entity_id, host.entity_id) for vm, host in first] == [
        (vm.entity_id, host.entity_id) for vm, host in second
    ]


def test_periodic_loop_moves_and_stops():
    """Rounds repeat until one moves nothing, as examples/failure_recovery.py
    drives the balancer."""
    cloud = SmallCloud(seed=3)
    seed_vms(cloud, [9, 1, 1, 1])
    balancer = LoadBalancer(
        cloud.server, cloud.cluster, imbalance_threshold=1, max_moves_per_round=2
    )
    rounds = []
    while not rounds or rounds[-1]:
        rounds.append(run_round(cloud, balancer))
    assert len(rounds) >= 3
    assert sum(rounds) == len(cloud.server.tasks.succeeded(OperationType.MIGRATE.value))
    assert sum(rounds) >= 4
    loads = [host.powered_on_vms for host in cloud.hosts]
    assert max(loads) - min(loads) <= 1
    assert balancer.imbalance() <= 1


def test_single_host_cluster_is_noop():
    cloud = SmallCloud(seed=3, hosts=1)
    seed_vms(cloud, [5])
    balancer = LoadBalancer(cloud.server, cloud.cluster)
    assert balancer.imbalance() == 0
    assert run_round(cloud, balancer) == 0


def test_validation():
    cloud = SmallCloud(seed=3)
    with pytest.raises(ValueError):
        LoadBalancer(cloud.server, cloud.cluster, imbalance_threshold=0)
    with pytest.raises(ValueError):
        LoadBalancer(cloud.server, cloud.cluster, max_moves_per_round=0)
