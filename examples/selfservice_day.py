#!/usr/bin/env python3
"""A day in a self-service cloud, with elastic reconfiguration.

Drives tenants against a CloudDirector for a (configurable) simulated day
while an ElasticityPolicy watches capacity and grows the cluster — the
mechanism behind the paper's claim 4: provisioning rates drag previously
infrequent reconfiguration operations (add host, add datastore, rescans)
into the steady-state management workload.

Usage::

    python examples/selfservice_day.py [--hours H] [--tenants N] [--seed N]
"""

import argparse

from repro.analysis.report import render_series, render_table
from repro.cloud import (
    Catalog,
    CatalogItem,
    CloudDirector,
    DeployRequest,
    ElasticityPolicy,
    Organization,
    PlacementEngine,
    SparePool,
)
from repro.controlplane import ManagementServer
from repro.datacenter import Cluster, Datacenter, Datastore, Host, Network
from repro.datacenter.templates import MEDIUM_LINUX, SMALL_LINUX, TemplateLibrary
from repro.sim import RandomStreams, Simulator
from repro.workloads.arrivals import DiurnalPoisson


def build(seed: int, tenants: int):
    sim = Simulator()
    streams = RandomStreams(seed)
    server = ManagementServer(sim, streams.spawn("server"))
    inventory = server.inventory
    datacenter = inventory.create(Datacenter, name="dc")
    cluster = inventory.create(Cluster, name="tenant-cluster")
    datacenter.add_cluster(cluster)
    network = inventory.create(Network, name="tenant-net")
    datastores = [
        inventory.create(Datastore, name=f"lun{i}", capacity_gb=30_000.0)
        for i in range(4)
    ]
    for index in range(8):
        host = inventory.create(Host, name=f"esx{index:02d}")
        cluster.add_host(host)
        for datastore in datastores:
            host.mount(datastore)
        host.attach_network(network)
        server.adopt_host(host)
    library = TemplateLibrary(inventory)
    library.publish(SMALL_LINUX, datastores[0])
    library.publish(MEDIUM_LINUX, datastores[1])
    catalog = Catalog("public")
    catalog.add(CatalogItem("small", SMALL_LINUX.name, linked=True))
    catalog.add(CatalogItem("medium", MEDIUM_LINUX.name, linked=True))
    orgs = [Organization(f"tenant{i:02d}", quota_vms=500) for i in range(tenants)]
    director = CloudDirector(
        server, cluster, library, catalog, placement=PlacementEngine()
    )
    policy = ElasticityPolicy(
        server,
        cluster,
        SparePool(
            hosts=[Host(entity_id=f"host-sp{i}", name=f"spare{i}") for i in range(6)]
        ),
        check_interval_s=900.0,
        vms_per_host_high=12.0,
        datastore_free_fraction_low=0.2,
    )
    return sim, streams, server, director, orgs, policy, cluster


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hours", type=float, default=24.0)
    parser.add_argument("--tenants", type=int, default=6)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    sim, streams, server, director, orgs, policy, cluster = build(
        args.seed, args.tenants
    )
    horizon = args.hours * 3600.0
    policy.start(until=horizon)
    # The sampler prefetches from its stream, so it gets one of its own.
    next_arrival = DiurnalPoisson(base_rate=1 / 120.0, amplitude=0.7).sampler(
        streams.stream("tenant-arrivals")
    )
    rng = streams.stream("tenant-requests")

    def tenant_loop():
        index = 0
        while True:
            next_time = next_arrival(sim.now)
            if next_time >= horizon:
                return
            yield sim.timeout(next_time - sim.now)
            org = orgs[index % len(orgs)]
            item = "small" if rng.random() < 0.6 else "medium"
            request = DeployRequest(
                org=org,
                item=director.catalog.get(item),
                vm_count=1 + rng.randrange(4),
                vapp_name=f"vapp-{index}",
            )
            index += 1

            def deploy(req=request):
                try:
                    yield from director.deploy(req)
                except Exception:
                    pass

            sim.spawn(deploy())

    sim.spawn(tenant_loop(), name="tenants")
    sim.run(until=horizon)
    sim.run()  # drain

    print(
        render_table(
            ["metric", "value"],
            [
                ["simulated hours", f"{args.hours:.0f}"],
                ["vApp deploy requests", f"{director.deploy_requests:.0f}"],
                ["VMs requested", f"{director.vm_requests:.0f}"],
                ["deploy p50 (s)", f"{director.deploy_latency_p(0.5):.1f}"],
                ["deploy p95 (s)", f"{director.deploy_latency_p(0.95):.1f}"],
                ["cluster hosts (started with 8)", len(cluster.hosts)],
                ["elastic add-host actions", f"{policy.add_host:.0f}"],
                ["elastic add-datastore actions", f"{policy.add_datastore:.0f}"],
                ["management tasks completed", len(server.tasks.succeeded())],
            ],
            title="A day of self-service",
        )
    )
    if policy.actions:
        print("\nElastic reconfiguration timeline (hour, action):")
        for when, action in policy.actions:
            print(f"  {when / 3600.0:6.1f}h  {action}")
    depth = server.tasks.queue_depth_series()
    if depth:
        print()
        print(render_series("task queue depth", depth, x_name="t (s)", y_name="depth"))


if __name__ == "__main__":
    main()
