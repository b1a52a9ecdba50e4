"""Tests for the scale-out sharded control plane."""

import pytest

from repro.controlplane import ShardedControlPlane
from repro.datacenter import Datastore, Host, TemplateLibrary
from repro.datacenter.templates import MEDIUM_LINUX
from repro.operations import CloneVM
from repro.sim import RandomStreams, Simulator


def build_sharded(shard_count, host_count=8, seed=3):
    sim = Simulator()
    plane = ShardedControlPlane(sim, RandomStreams(seed), shard_count=shard_count)
    hosts = []
    templates = {}
    for index in range(host_count):
        host = Host(entity_id=f"host-{index}", name=f"esx{index:02d}")
        shard = plane.adopt_host(host)
        hosts.append(host)
        if shard.name not in templates:
            datastore = shard.inventory.create(
                Datastore, name=f"lun-{shard.name}", capacity_gb=50000.0
            )
            library = TemplateLibrary(shard.inventory)
            templates[shard.name] = (library.publish(MEDIUM_LINUX, datastore), datastore)
        for host_ds in [templates[shard.name][1]]:
            host.mount(host_ds)
    return sim, plane, hosts, templates


def test_shard_count_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        ShardedControlPlane(sim, RandomStreams(1), shard_count=0)


def test_hosts_distributed_round_robin():
    _, plane, hosts, _ = build_sharded(shard_count=2, host_count=8)
    counts = [len(shard.hosts) for shard in plane.shards]
    assert counts == [4, 4]


def test_route_to_owning_shard():
    _, plane, hosts, _ = build_sharded(shard_count=2)
    shard = plane.shard_for_host(hosts[0])
    assert hosts[0] in shard.hosts


def test_unknown_host_routing_fails():
    _, plane, _, _ = build_sharded(shard_count=2)
    stranger = Host(entity_id="host-x", name="stranger")
    with pytest.raises(KeyError):
        plane.shard_for_host(stranger)


def run_storm(shard_count, clones=32):
    sim, plane, hosts, templates = build_sharded(shard_count=shard_count)
    for index in range(clones):
        host = hosts[index % len(hosts)]
        shard = plane.shard_for_host(host)
        template, datastore = templates[shard.name]
        op = CloneVM(template, f"vm-{index}", host, datastore, linked=True)
        plane.submit_on(host, op)
    sim.run()
    return sim, plane


def test_storm_completes_across_shards():
    sim, plane = run_storm(shard_count=2)
    assert plane.completed_tasks() == 32


def test_more_shards_more_throughput():
    """R-F9 shape: sharding the control plane raises provisioning throughput."""
    sim1, plane1 = run_storm(shard_count=1)
    sim4, plane4 = run_storm(shard_count=4)
    # R-F9's rate: completed tasks over the makespan.
    assert plane4.completed_tasks() / sim4.now > plane1.completed_tasks() / sim1.now
    assert sim4.now < sim1.now


def test_aggregate_utilization_snapshot():
    sim, plane = run_storm(shard_count=2)
    snapshot = plane.utilization_snapshot()
    assert 0.0 <= snapshot["cpu"] <= 1.0
    assert 0.0 <= snapshot["db"] <= 1.0


def test_throughput_zero_before_time_advances():
    # An R-F9 cell with no clones never advances the clock: its rate is 0.
    from repro.core.experiments import _f9_cell

    assert _f9_cell((1, 1, 2, 0)) == (0, 0.0)
