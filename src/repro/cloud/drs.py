"""DRS-style load balancing: the background migration workload.

A real cluster continuously rebalances: a scheduler scores host load and
live-migrates VMs off hot hosts. Every migration is another management
task — in churny clouds the balancer itself becomes a steady contributor
to the control-plane load (it reacts to every provisioning wave).
"""

from __future__ import annotations

import typing

from repro.datacenter.entities import Cluster, Host
from repro.datacenter.vm import PowerState, VirtualMachine
from repro.operations.migration import MigrateVM
from repro.controlplane.server import ManagementServer


class LoadBalancer:
    """Greedy rebalancer over a cluster, one round per :meth:`rebalance_once`.

    Imbalance metric: max - min powered-on VMs per usable host. When it
    exceeds ``imbalance_threshold``, up to ``max_moves_per_round`` VMs
    migrate from the most- to the least-loaded host. The caller decides
    when rounds run (for example, until a round moves nothing).
    """

    def __init__(
        self,
        server: ManagementServer,
        cluster: Cluster,
        imbalance_threshold: int = 2,
        max_moves_per_round: int = 2,
    ) -> None:
        if imbalance_threshold < 1 or max_moves_per_round < 1:
            raise ValueError("threshold and moves must be >= 1")
        self.server = server
        self.cluster = cluster
        self.imbalance_threshold = imbalance_threshold
        self.max_moves_per_round = max_moves_per_round

    # -- scoring ------------------------------------------------------------

    @staticmethod
    def _load(host: Host) -> int:
        return host.powered_on_vms

    def imbalance(self) -> int:
        hosts = self.cluster.usable_hosts
        if len(hosts) < 2:
            return 0
        loads = [self._load(host) for host in hosts]
        return max(loads) - min(loads)

    def plan_moves(self) -> list[tuple[VirtualMachine, Host]]:
        """Greedy donor→recipient plan for one round (pure function)."""
        hosts = sorted(
            self.cluster.usable_hosts, key=lambda host: (self._load(host), host.entity_id)
        )
        if len(hosts) < 2:
            return []
        moves: list[tuple[VirtualMachine, Host]] = []
        donor, recipient = hosts[-1], hosts[0]
        donor_load, recipient_load = self._load(donor), self._load(recipient)
        movable = sorted(
            (vm for vm in donor.vms if vm.power_state == PowerState.ON),
            key=lambda vm: vm.entity_id,
        )
        for vm in movable:
            if donor_load - recipient_load <= self.imbalance_threshold:
                break
            if len(moves) >= self.max_moves_per_round:
                break
            moves.append((vm, recipient))
            donor_load -= 1
            recipient_load += 1
        return moves

    # -- execution -------------------------------------------------------------

    def rebalance_once(self) -> typing.Generator[typing.Any, typing.Any, int]:
        """Process-style: execute one planning round; returns moves made."""
        if self.imbalance() <= self.imbalance_threshold:
            return 0
        moves = self.plan_moves()
        completed = 0
        for vm, destination in moves:
            process = self.server.submit(MigrateVM(vm, destination), priority=8.0)
            try:
                yield process
            except Exception:
                continue
            completed += 1
        return completed
