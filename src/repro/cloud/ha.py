"""High availability: host failures and the restart storms they cause.

When a host dies, every VM it ran must be restarted elsewhere — a burst
of placement decisions and power-on operations through the *control
plane* at exactly the moment the datacenter is degraded. This is the
availability-side analogue of the paper's provisioning argument: modern
"cheap" recovery mechanisms are data-light and control-heavy.
"""

from __future__ import annotations

import typing

from repro.cloud.placement import PlacementEngine, PlacementError
from repro.datacenter.entities import Cluster, Host, HostState
from repro.datacenter.vm import PowerState
from repro.operations.power import PowerOn
from repro.sim.events import AllOf
from repro.sim.stats import MetricsRegistry
from repro.controlplane.server import ManagementServer


class HAManager:
    """Detects (is told about) host failures and restarts their VMs."""

    def __init__(
        self,
        server: ManagementServer,
        cluster: Cluster,
        placement: PlacementEngine | None = None,
    ) -> None:
        self.server = server
        self.cluster = cluster
        self.placement = placement or PlacementEngine()
        self.metrics = MetricsRegistry(server.sim, prefix="ha")

    def fail_host(
        self, host: Host
    ) -> typing.Generator[typing.Any, typing.Any, dict[str, int]]:
        """Process-style: fail ``host`` and restart its powered-on VMs.

        Returns counts: restarted, lost (no capacity), stranded_off
        (powered-off VMs left unplaced until the host returns).
        """
        if host not in self.cluster.hosts:
            raise ValueError(f"host {host.name!r} is not in cluster {self.cluster.name!r}")
        if host.state == HostState.DISCONNECTED:
            raise ValueError(f"host {host.name!r} already failed")
        host.state = HostState.DISCONNECTED
        self.metrics.counter("host_failures").add()
        failure_time = self.server.sim.now

        victims = [vm for vm in sorted(host.vms, key=lambda v: v.entity_id)]
        restart_processes = []
        counts = {"restarted": 0, "lost": 0, "stranded_off": 0}
        for vm in victims:
            if vm.power_state != PowerState.ON:
                counts["stranded_off"] += 1
                continue
            vm.power_state = PowerState.OFF  # it crashed with its host
            try:
                target = self.placement.choose_host(
                    self.cluster, memory_gb=vm.memory_gb
                )
            except PlacementError:
                counts["lost"] += 1
                self.metrics.counter("restart_failures").add()
                continue
            vm.place_on(target)
            restart_processes.append(
                (vm, self.server.submit(PowerOn(vm), priority=1.0))
            )
        if restart_processes:
            yield AllOf(
                self.server.sim,
                [self._guard(process) for _, process in restart_processes],
            )
        for vm, process in restart_processes:
            if process.ok:
                counts["restarted"] += 1
                self.metrics.latency("restart_latency").record(
                    self.server.sim.now - failure_time
                )
            else:
                counts["lost"] += 1
                self.metrics.counter("restart_failures").add()
        return counts

    def recover_host(self, host: Host) -> None:
        """Bring a failed host back (it rejoins empty)."""
        if host.state != HostState.DISCONNECTED:
            raise ValueError(f"host {host.name!r} is not failed")
        host.state = HostState.CONNECTED
        self.metrics.counter("host_recoveries").add()

    def _guard(self, process):
        def swallow():
            try:
                yield process
            except Exception:
                pass

        return self.server.sim.spawn(swallow())
