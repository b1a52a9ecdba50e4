"""Elasticity: capacity watchers that trigger infrastructure reconfiguration.

This closes the loop of the paper's claim 4: the faster tenants provision,
the faster these policies fire add-host / add-datastore / rescan
operations — turning "previously infrequent" reconfiguration into a
steady-state component of the management workload.
"""

from __future__ import annotations

import typing

from repro.datacenter.entities import Cluster, Datastore, Host
from repro.operations.reconfiguration import AddDatastore, AddHost
from repro.controlplane.server import ManagementServer


class SparePool:
    """Standby capacity the elasticity policy can draw on."""

    def __init__(
        self,
        hosts: typing.Sequence[Host] = (),
        datastore_capacity_gb: float = 20_000.0,
    ) -> None:
        self._hosts = list(hosts)
        self.datastore_capacity_gb = datastore_capacity_gb
        self._datastore_count = 0

    def take_host(self) -> Host | None:
        return self._hosts.pop(0) if self._hosts else None

    def make_datastore(self) -> Datastore:
        self._datastore_count += 1
        return Datastore(
            entity_id=f"ds-spare-{self._datastore_count}",
            name=f"elastic-lun{self._datastore_count:02d}",
            capacity_gb=self.datastore_capacity_gb,
        )


class ElasticityPolicy:
    """Periodic watcher: grows the cluster when watermarks are crossed.

    - ``vms_per_host_high``: average VMs/host beyond which a spare host is
      added (rescanning every shared datastore on join).
    - ``datastore_free_fraction_low``: minimum free fraction across shared
      datastores below which a new datastore is provisioned and mounted on
      every host (a rescan per host).
    """

    def __init__(
        self,
        server: ManagementServer,
        cluster: Cluster,
        spares: SparePool,
        check_interval_s: float = 300.0,
        vms_per_host_high: float = 20.0,
        datastore_free_fraction_low: float = 0.15,
    ) -> None:
        if check_interval_s <= 0:
            raise ValueError("check_interval_s must be positive")
        self.server = server
        self.cluster = cluster
        self.spares = spares
        self.check_interval_s = check_interval_s
        self.vms_per_host_high = vms_per_host_high
        self.datastore_free_fraction_low = datastore_free_fraction_low
        # Grow actions taken (the self-service example prints them).
        self.add_host = 0
        self.add_datastore = 0
        self.actions: list[tuple[float, str]] = []
        self._running = False
        self._until: float | None = None

    def start(self, until: float | None = None) -> None:
        """Spawn the periodic watcher process.

        ``until`` bounds the watcher in simulated time; without it the
        watcher runs for the life of the simulation (and an unbounded
        ``sim.run()`` drain would never return — pass a horizon when the
        caller drains that way).
        """
        if self._running:
            raise RuntimeError("elasticity policy already started")
        self._running = True
        self._until = until
        self.server.sim.spawn(self._watch(), name="elasticity")

    def stop(self) -> None:
        """Ask the watcher to exit at its next wake-up."""
        self._until = self.server.sim.now

    # -- decision logic (public so tests and benches can call it directly) ---

    def needs_host(self) -> bool:
        hosts = self.cluster.usable_hosts
        if not hosts:
            return False
        vms_per_host = sum(len(host.vms) for host in hosts) / len(hosts)
        return vms_per_host > self.vms_per_host_high

    def needs_datastore(self) -> bool:
        shared = self.cluster.shared_datastores()
        if not shared:
            return False
        worst = min(ds.free_gb / ds.capacity_gb for ds in shared)
        return worst < self.datastore_free_fraction_low

    def check_once(self) -> typing.Generator[typing.Any, typing.Any, list[str]]:
        """Process-style: evaluate watermarks, issue reconfig ops. Returns
        the action names taken this round."""
        taken: list[str] = []
        if self.needs_host():
            host = self.spares.take_host()
            if host is not None:
                shared = self.cluster.shared_datastores()
                process = self.server.submit(AddHost(host, self.cluster, shared))
                yield process
                taken.append("add_host")
                self.add_host += 1
        if self.needs_datastore():
            datastore = self.spares.make_datastore()
            process = self.server.submit(
                AddDatastore(datastore, self.cluster.usable_hosts)
            )
            yield process
            taken.append("add_datastore")
            self.add_datastore += 1
        for action in taken:
            self.actions.append((self.server.sim.now, action))
        return taken

    def _watch(self) -> typing.Generator:
        while True:
            yield self.server.sim.timeout(self.check_interval_s)
            if self._until is not None and self.server.sim.now >= self._until:
                return
            try:
                yield from self.check_once()
            except Exception:
                # A failed grow attempt (e.g. host handshake timeout) must
                # not kill the watcher; it retries next interval.
                pass
