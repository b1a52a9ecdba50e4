"""Placement: choosing hosts and datastores for new VMs."""

from __future__ import annotations

import random
import typing

from repro.datacenter.entities import Cluster, Datastore, Host


class PlacementError(Exception):
    """No host or datastore can satisfy the request."""


class PlacementEngine:
    """Host/datastore selection with pluggable policies.

    Policies:

    - ``least_loaded`` (default): fewest VMs per host, most free space per
      datastore — a DRS-like greedy heuristic.
    - ``round_robin``: cycles deterministically (reproducible spreads).
    - ``random``: uniform choice from the seeded stream.
    """

    POLICIES = ("least_loaded", "round_robin", "random")

    def __init__(self, policy: str = "least_loaded", rng: random.Random | None = None) -> None:
        if policy not in self.POLICIES:
            raise ValueError(f"unknown placement policy {policy!r}")
        self.policy = policy
        self.rng = rng or random.Random(0)
        self._host_cursor = 0
        self._ds_cursor = 0

    def choose_host(
        self,
        cluster: Cluster,
        memory_gb: float = 0.0,
        exclude_hosts: typing.Collection[str] = (),
    ) -> Host:
        """A usable host; with ``memory_gb``, one that can admit that guest.

        ``exclude_hosts`` (entity ids) removes known-bad candidates — the
        director passes hosts that already failed this VM's deploy so a
        retry re-places elsewhere.
        """
        candidates = cluster.usable_hosts
        if exclude_hosts:
            candidates = [
                host for host in candidates if host.entity_id not in exclude_hosts
            ]
        if not candidates:
            raise PlacementError(f"cluster {cluster.name!r} has no usable hosts")
        if memory_gb > 0.0:
            candidates = [host for host in candidates if host.can_admit(memory_gb)]
            if not candidates:
                raise PlacementError(
                    f"no host in {cluster.name!r} can admit {memory_gb:.0f} GB"
                )
        if self.policy == "round_robin":
            host = candidates[self._host_cursor % len(candidates)]
            self._host_cursor += 1
            return host
        if self.policy == "random":
            return self.rng.choice(candidates)
        return min(candidates, key=lambda host: (len(host.vms), host.entity_id))

    def choose_datastore(
        self,
        cluster: Cluster,
        required_gb: float,
        exclude_datastores: typing.Collection[str] = (),
    ) -> Datastore:
        """A shared datastore with room; ``exclude_datastores`` (entity
        ids) removes known-bad candidates, mirroring ``exclude_hosts`` —
        a datastore that just failed a copy would otherwise stay the
        most-free (it fills slower) and attract every retry."""
        shared = cluster.shared_datastores()
        candidates = [ds for ds in shared if ds.free_gb >= required_gb]
        if exclude_datastores:
            filtered = [
                ds for ds in candidates if ds.entity_id not in exclude_datastores
            ]
            if filtered:
                candidates = filtered
        if not candidates:
            raise PlacementError(
                f"no shared datastore in {cluster.name!r} with {required_gb:.1f} GB free"
            )
        if self.policy == "round_robin":
            datastore = candidates[self._ds_cursor % len(candidates)]
            self._ds_cursor += 1
            return datastore
        if self.policy == "random":
            return self.rng.choice(candidates)
        return max(candidates, key=lambda ds: (ds.free_gb, ds.entity_id))

    def choose(
        self,
        cluster: Cluster,
        required_gb: float,
        memory_gb: float = 0.0,
        exclude_hosts: typing.Collection[str] = (),
        exclude_datastores: typing.Collection[str] = (),
    ) -> typing.Tuple[Host, Datastore]:
        """A (host, datastore) pair for one new VM."""
        return (
            self.choose_host(cluster, memory_gb=memory_gb, exclude_hosts=exclude_hosts),
            self.choose_datastore(
                cluster, required_gb, exclude_datastores=exclude_datastores
            ),
        )
