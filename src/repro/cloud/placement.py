"""Placement: choosing hosts and datastores for new VMs."""

from __future__ import annotations

import typing

from repro.datacenter.entities import MB_PER_GB, Cluster, Datastore, Host


class PlacementError(Exception):
    """No host or datastore can satisfy the request."""


class PlacementEngine:
    """Least-loaded host/datastore selection: fewest VMs per host, most
    free space per datastore — a DRS-like greedy heuristic."""

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
        usable = False  # a usable host survived the exclusions
        best: Host | None = None  # min over (len(vms), entity_id)
        best_load = 0
        for host in cluster.usable_hosts:
            if host.entity_id in exclude_hosts:
                continue
            usable = True
            # Host.can_admit, inlined with the same float operations.
            if memory_gb > 0.0 and not (
                host.powered_on_mb / MB_PER_GB + memory_gb
                <= host.memory_gb * host.memory_overcommit + 1e-9
            ):
                continue
            load = len(host.vms)
            if (
                best is None
                or load < best_load
                or (load == best_load and host.entity_id < best.entity_id)
            ):
                best, best_load = host, load
        if not usable:
            raise PlacementError(f"cluster {cluster.name!r} has no usable hosts")
        if best is None:
            raise PlacementError(
                f"no host in {cluster.name!r} can admit {memory_gb:.0f} GB"
            )
        return best

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
        # max over (free_gb, entity_id) of the shared datastores with room,
        # and of those not excluded. shared_datastores() is in entity_id
        # order, so ``>=`` breaks ties toward the larger id.
        best = best_kept = None
        best_free = best_kept_free = 0.0
        for datastore in cluster.shared_datastores():
            free = datastore.capacity_gb - datastore.used_gb  # Datastore.free_gb
            if not free >= required_gb:
                continue
            if best is None or free >= best_free:
                best, best_free = datastore, free
            if datastore.entity_id in exclude_datastores:
                continue
            if best_kept is None or free >= best_kept_free:
                best_kept, best_kept_free = datastore, free
        if best is None:
            raise PlacementError(
                f"no shared datastore in {cluster.name!r} with {required_gb:.1f} GB free"
            )
        return best_kept if best_kept is not None else best

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
