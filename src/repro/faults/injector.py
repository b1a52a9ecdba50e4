"""The fault injector: a simulator process that drives a schedule.

:class:`FaultTargets` is the facade between declarative
:class:`~repro.faults.schedule.FaultSpec`\\ s and live infrastructure: it
resolves names to hosts/datastores/servers, hands out the right
:class:`~repro.faults.hooks.FaultHook` for each injection point, and
owns host flap bookkeeping (depth-counted so overlapping flap windows
restore the original state exactly once).

:class:`FaultInjector` spawns one simulator process per fault window;
each sleeps until ``start_s``, resolves its targets, arms them under a
unique token, sleeps for ``duration_s``, and disarms. The injector
records a timeline of arm/disarm events and exposes ``drain()`` so
experiments can wait for every window to close.

This module deliberately imports nothing from ``repro.controlplane`` /
``repro.storage`` / ``repro.cloud`` at runtime (those packages import
``repro.faults``); it only duck-types against their public attributes.
"""

from __future__ import annotations

import dataclasses
import random
import typing

from repro.datacenter.entities import Datastore, Host, HostState
from repro.faults.manifest import (
    GroundTruthManifest,
    GroundTruthWindow,
    window_from_spec,
)
from repro.faults.schedule import FaultSchedule, FaultSpec

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.controlplane.server import ManagementServer
    from repro.faults.hooks import FaultHook
    from repro.sim.kernel import Process, Simulator
    from repro.sim.stats import MetricsRegistry


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One arm/disarm transition in the injector timeline."""

    at_s: float
    action: str  # "arm" | "disarm"
    description: str


class FaultTargets:
    """Resolves fault specs against live servers, hosts, and datastores."""

    def __init__(
        self,
        servers: typing.Sequence["ManagementServer"],
        hosts: typing.Sequence[Host] | None = None,
        datastores: typing.Sequence[Datastore] | None = None,
        buses: typing.Sequence | None = None,
    ) -> None:
        self.servers: list["ManagementServer"] = list(servers)
        # Buses not owned by any target server — e.g. the federation bus,
        # which lives on the FederatedCloud while its shards run direct.
        self._extra_buses: list = list(buses) if buses else []
        if not self.servers:
            raise ValueError("FaultTargets needs at least one management server")
        if hosts is None:
            hosts = [host for server in self.servers for host in server.hosts]
        self.hosts: list[Host] = list(hosts)
        if datastores is None:
            seen: dict[str, Datastore] = {}
            for server in self.servers:
                for datastore in server.datastores():
                    seen.setdefault(datastore.entity_id, datastore)
            datastores = list(seen.values())
        self.datastores: list[Datastore] = list(datastores)
        # flap bookkeeping: overlapping windows restore state exactly once
        self._flap_depth: dict[str, int] = {}
        self._flap_saved: dict[str, HostState] = {}

    @classmethod
    def for_server(cls, server: "ManagementServer") -> "FaultTargets":
        return cls([server])

    @classmethod
    def for_federation(cls, cloud) -> "FaultTargets":
        """Targets for a ``FederatedCloud``: every shard plus the federation bus."""
        bus = getattr(cloud, "bus", None)
        buses = [bus] if bus is not None and getattr(bus, "mediated", False) else None
        return cls(list(cloud.plane.shards), buses=buses)

    # -- selection ---------------------------------------------------------

    @staticmethod
    def _pick(pool: list, names: tuple[str, ...], count: int, rng: random.Random, what: str) -> list:
        if names:
            by_name = {item.name: item for item in pool}
            missing = [name for name in names if name not in by_name]
            if missing:
                raise KeyError(f"unknown {what}(s): {missing}")
            return [by_name[name] for name in names]
        ordered = sorted(pool, key=lambda item: item.name)
        if count >= len(ordered):
            return ordered
        return rng.sample(ordered, count)

    def pick_hosts(self, names: tuple[str, ...], count: int, rng: random.Random) -> list[Host]:
        return self._pick(self.hosts, names, count, rng, "host")

    def pick_datastores(
        self, names: tuple[str, ...], count: int, rng: random.Random
    ) -> list[Datastore]:
        return self._pick(self.datastores, names, count, rng, "datastore")

    def pick_servers(
        self, names: tuple[str, ...], count: int, rng: random.Random
    ) -> list["ManagementServer"]:
        return self._pick(self.servers, names, count, rng, "server")

    # -- hook lookup -------------------------------------------------------

    def server_for_host(self, host: Host) -> "ManagementServer":
        for server in self.servers:
            try:
                server.agent(host)
            except KeyError:
                continue
            return server
        raise KeyError(f"host {host.name!r} not managed by any target server")

    def agent_hook(self, host: Host) -> "FaultHook":
        return self.server_for_host(host).agent(host).faults

    def database_hooks(self) -> list["FaultHook"]:
        return [server.database.faults for server in self.servers]

    def copy_hooks(self) -> list["FaultHook"]:
        return [server.copy_engine.faults for server in self.servers]

    def buses(self) -> list:
        """Mediated message buses across the target servers.

        Duck-typed (``bus.mediated``) to keep this module free of
        ``repro.controlplane`` imports; direct-call rigs yield an empty
        list, so message-fault specs arm as no-ops there.
        """
        out = list(self._extra_buses)
        for server in self.servers:
            bus = getattr(server, "bus", None)
            if bus is not None and getattr(bus, "mediated", False) and bus not in out:
                out.append(bus)
        return out

    # -- host flaps --------------------------------------------------------

    def flap_down(self, host: Host) -> None:
        depth = self._flap_depth.get(host.entity_id, 0)
        if depth == 0:
            self._flap_saved[host.entity_id] = host.state
            host.state = HostState.DISCONNECTED
        self._flap_depth[host.entity_id] = depth + 1

    def flap_up(self, host: Host) -> None:
        depth = self._flap_depth.get(host.entity_id, 0)
        if depth <= 0:
            raise RuntimeError(f"flap_up without flap_down on {host.name}")
        if depth == 1:
            host.state = self._flap_saved.pop(host.entity_id)
            del self._flap_depth[host.entity_id]
        else:
            self._flap_depth[host.entity_id] = depth - 1


class FaultInjector:
    """Drives a :class:`FaultSchedule` against :class:`FaultTargets`."""

    def __init__(
        self,
        sim: "Simulator",
        targets: FaultTargets,
        schedule: FaultSchedule,
        rng: random.Random | None = None,
        metrics: "MetricsRegistry | None" = None,
        name: str = "faults",
    ) -> None:
        from repro.sim.stats import MetricsRegistry

        self.sim = sim
        self.targets = targets
        self.schedule = schedule
        self.rng = rng or random.Random(0x5EED)
        self.metrics = metrics or MetricsRegistry(sim, prefix=name)
        self.name = name
        self.events: list[FaultEvent] = []
        self.processes: list["Process"] = []
        self.active = 0
        self._started = False
        self._injected: list[GroundTruthWindow] = []

    def start(self) -> "FaultInjector":
        """Spawn one driver process per fault window."""
        if self._started:
            raise RuntimeError("fault injector already started")
        self._started = True
        for index, spec in enumerate(self.schedule):
            self.processes.append(
                self.sim.spawn(
                    self._drive(index, spec), name=f"{self.name}:{spec.kind}:{index}"
                )
            )
        return self

    def _drive(self, index: int, spec: FaultSpec) -> typing.Generator:
        if spec.start_s > self.sim.now:
            yield self.sim.timeout(spec.start_s - self.sim.now)
        selection = spec.select(self.targets, self.rng)
        token = (self.name, index)
        description = spec.describe(selection)
        spec.arm(self.targets, token, selection)
        self.active += 1
        self.metrics.counter("windows_armed").add()
        self.metrics.gauge("active_windows").set(self.active)
        self.events.append(FaultEvent(self.sim.now, "arm", description))
        # Ground truth is recorded as *resolved*: actual arm instant and
        # the target names drawn from the live infrastructure.
        window_index = len(self._injected)
        self._injected.append(
            window_from_spec(
                spec,
                start_s=self.sim.now,
                end_s=self.sim.now + spec.duration_s,
                targets=[
                    item.name if hasattr(item, "name") else type(item).__name__
                    for item in selection
                ],
            )
        )
        try:
            yield self.sim.timeout(spec.duration_s)
        finally:
            spec.disarm(self.targets, token, selection)
            self.active -= 1
            self.metrics.gauge("active_windows").set(self.active)
            self.events.append(FaultEvent(self.sim.now, "disarm", description))
            self._injected[window_index] = dataclasses.replace(
                self._injected[window_index], end_s=self.sim.now
            )

    def drain(self) -> typing.Generator:
        """Process-style: wait until every fault window has closed."""
        from repro.sim.events import AllOf

        if self.processes:
            yield AllOf(self.sim, list(self.processes))

    def ground_truth(self) -> GroundTruthManifest:
        """The *resolved* injection oracle: windows as actually armed.

        Each entry carries the real arm instant, the target names drawn
        from the live infrastructure, and (once the window closed) the
        actual disarm instant. Windows still armed when the run stops keep
        their planned end.
        """
        return GroundTruthManifest(self._injected)

    def timeline(self) -> list[str]:
        """Human-readable arm/disarm log, for the CLI demo."""
        return [
            f"t={event.at_s:9.2f}s  {event.action:<6}  {event.description}"
            for event in self.events
        ]
