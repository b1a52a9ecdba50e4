#!/usr/bin/env python3
"""Availability under churn: failures, HA restarts, DRS, and maintenance.

Builds a loaded cluster, then exercises the availability machinery:

1. a host fails → the HA manager restarts its VMs elsewhere (a power-on
   storm through the control plane);
2. the failed host comes back empty and the DRS balancer smooths the
   skew with live migrations;
3. a loaded host is rotated through maintenance mode (evacuate → fence →
   unfence), the rolling-patch routine clouds run.

Everything is ordinary management-plane work — the example prints how
many tasks each stage cost and where the time went.

Usage::

    python examples/failure_recovery.py [--vms N] [--seed N]
"""

import argparse

from repro.analysis.report import render_table
from repro.cloud import HAManager, LoadBalancer
from repro.core.experiments import StormRig
from repro.datacenter import PowerState, VirtualDisk, VirtualMachine
from repro.operations import EnterMaintenance, ExitMaintenance
from repro.storage.linked_clone import create_linked_backing


def seed_residents(rig, per_host):
    anchor = rig.template.disks[0].backing
    count = 0
    for host in rig.hosts:
        for _ in range(per_host):
            count += 1
            vm = rig.server.inventory.create(
                VirtualMachine, name=f"res-{count}", power_state=PowerState.ON
            )
            backing = create_linked_backing(anchor, rig.datastores[count % 4])
            vm.attach_disk(
                VirtualDisk(label="d0", backing=backing, provisioned_gb=40.0)
            )
            vm.place_on(host)


def tasks_since(rig, mark):
    return len(rig.server.tasks.tasks) - mark


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vms", type=int, default=8, help="VMs per host")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    rig = StormRig(seed=args.seed, hosts=6, datastores=4)
    seed_residents(rig, args.vms)
    ha = HAManager(rig.server, rig.cluster)
    rows = []

    # Stage 1: host failure and HA restart storm.
    victim = rig.hosts[0]
    mark = len(rig.server.tasks.tasks)
    outcome = {}

    def fail():
        outcome.update((yield from ha.fail_host(victim)))

    start = rig.sim.now
    rig.sim.run(until=rig.sim.spawn(fail()))
    rows.append(
        [
            "host failure + HA restart",
            tasks_since(rig, mark),
            f"{rig.sim.now - start:.1f}",
            f"restarted {outcome['restarted']}, lost {outcome['lost']}",
        ]
    )

    # Stage 2: the failed host returns empty; DRS smooths the skew.
    ha.recover_host(victim)
    balancer = LoadBalancer(
        rig.server, rig.cluster, imbalance_threshold=1, max_moves_per_round=4
    )
    mark = len(rig.server.tasks.tasks)
    start = rig.sim.now

    def rebalance():
        moved = 1
        while moved:
            moved = yield from balancer.rebalance_once()

    rig.sim.run(until=rig.sim.spawn(rebalance()))
    rows.append(
        [
            "DRS rebalance",
            tasks_since(rig, mark),
            f"{rig.sim.now - start:.1f}",
            f"imbalance now {balancer.imbalance()}",
        ]
    )

    # Stage 3: rotate a *loaded* host through maintenance (the
    # rolling-patch routine).
    patched = max(rig.hosts, key=lambda host: len(host.vms))
    mark = len(rig.server.tasks.tasks)
    start = rig.sim.now

    def rolling():
        process = rig.server.submit(
            EnterMaintenance(patched, targets=[h for h in rig.hosts if h is not patched])
        )
        yield process
        process = rig.server.submit(ExitMaintenance(patched))
        yield process

    rig.sim.run(until=rig.sim.spawn(rolling()))
    rows.append(
        [
            "maintenance rotation",
            tasks_since(rig, mark),
            f"{rig.sim.now - start:.1f}",
            f"host state {patched.state.value}",
        ]
    )

    print(
        render_table(
            ["stage", "management tasks", "elapsed (s)", "outcome"],
            rows,
            title=f"Availability workflow costs ({args.vms} VMs/host, 6 hosts)",
        )
    )
    restart_p95 = ha.restart_latency.percentile(0.95)
    print(f"\nHA restart p95: {restart_p95:.1f}s — all of it control-plane work.")


if __name__ == "__main__":
    main()
