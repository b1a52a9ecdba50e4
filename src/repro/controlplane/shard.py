"""Scale-out: partition the infrastructure across management-server shards.

The paper's design implication: if the control plane is the provisioning
bottleneck, shard it. Each shard is a full :class:`ManagementServer`
owning a disjoint host/datastore subset; the router places operations on
the shard owning the target entities. R-F9 sweeps the shard count.
"""

from __future__ import annotations

import itertools
import typing

from repro.datacenter.entities import Host
from repro.sim.kernel import Process, Simulator
from repro.sim.random import RandomStreams
from repro.controlplane.costs import ControlPlaneConfig, ControlPlaneCosts, DEFAULT_COSTS
from repro.controlplane.recovery import TaskJournal
from repro.controlplane.server import ManagementServer

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.operations.base import Operation


class ShardedControlPlane:
    """N management servers behind a placement router."""

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        shard_count: int,
        costs: ControlPlaneCosts = DEFAULT_COSTS,
        config: ControlPlaneConfig | None = None,
        journal: bool = False,
    ) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        self.sim = sim
        self.shards = [
            ManagementServer(
                sim,
                streams.spawn(f"shard-{index}"),
                costs=costs,
                config=config,
                name=f"vc-{index + 1}",
                journal=TaskJournal() if journal else None,
            )
            for index in range(shard_count)
        ]
        self._round_robin = itertools.cycle(range(shard_count))
        self._host_to_shard: dict[str, ManagementServer] = {}

    def adopt_host(self, host: Host) -> ManagementServer:
        """Assign a host to the next shard round-robin."""
        shard = self.shards[next(self._round_robin)]
        shard.inventory.register(host)
        shard.adopt_host(host)
        self._host_to_shard[host.entity_id] = shard
        return shard

    def register_routing(self, host: Host, shard: ManagementServer) -> None:
        """Record shard ownership for a host adopted directly on ``shard``.

        For callers (like the federation layer) that build shard-local
        infrastructure themselves and only need the router to know about it.
        """
        if shard not in self.shards:
            raise ValueError(f"{shard.name!r} is not a shard of this plane")
        if host.entity_id in self._host_to_shard:
            raise ValueError(f"host {host.name!r} already routed")
        self._host_to_shard[host.entity_id] = shard

    def shard_for_host(self, host: Host) -> ManagementServer:
        try:
            return self._host_to_shard[host.entity_id]
        except KeyError:
            raise KeyError(f"host {host.name!r} not adopted by any shard") from None

    def submit_on(self, host: Host, operation: "Operation", priority: float = 5.0) -> Process:
        """Route an operation to the shard owning ``host``."""
        return self.shard_for_host(host).submit(operation, priority=priority)

    # -- shard health and load ----------------------------------------------

    @staticmethod
    def is_down(shard: ManagementServer) -> bool:
        """True while ``shard`` is inside a crash or unavailability window.

        Covers both fault shapes: a ``server_crash`` (the process is gone,
        ``shard.crashed``) and a ``shard_crash`` (the endpoint rejects
        submissions, ``shard.faults.blocked()``).
        """
        return shard.crashed or shard.faults.blocked()

    @staticmethod
    def load_of(shard: ManagementServer) -> int:
        """Queued plus in-flight task lifecycles — the routing load signal."""
        return shard.tasks.queue_depth + shard.inflight_tasks

    # -- aggregated reporting ------------------------------------------------

    def completed_tasks(self) -> int:
        return sum(len(shard.tasks.succeeded()) for shard in self.shards)

    def dead_letters(self) -> int:
        """Aggregate permanently failed (dead-lettered) tasks."""
        return sum(len(shard.tasks.dead_letters) for shard in self.shards)

    def utilization_snapshot(self, since: float = 0.0) -> dict[str, float]:
        """Mean per-resource utilization across shards."""
        snapshots = [shard.utilization_snapshot(since) for shard in self.shards]
        keys = snapshots[0].keys()
        return {
            key: sum(snapshot[key] for snapshot in snapshots) / len(snapshots)
            for key in keys
        }
