"""Infrastructure entities: datacenters, clusters, hosts, datastores, networks."""

from __future__ import annotations

import dataclasses
import enum
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.datacenter.vm import VirtualMachine


#: Guest memory is accounted in whole MB (see ``Host.powered_on_mb``).
MB_PER_GB = 1024


class HostState(enum.Enum):
    """Connection state of a host as seen by the management server."""

    CONNECTED = "connected"
    MAINTENANCE = "maintenance"
    DISCONNECTED = "disconnected"


@dataclasses.dataclass
class ManagedEntity:
    """Base for everything with a managed-object identity."""

    entity_id: str
    name: str

    def __hash__(self) -> int:
        return hash(self.entity_id)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ManagedEntity) and other.entity_id == self.entity_id


@dataclasses.dataclass(eq=False)
class Network(ManagedEntity):
    """A virtual network (port group). VMs attach NICs to networks."""


@dataclasses.dataclass(eq=False)
class Datastore(ManagedEntity):
    """Shared storage visible to some set of hosts.

    ``capacity_gb``/``used_gb`` track space; ``hosts`` is the mount set —
    the quantity that makes rescans expensive (a rescan touches every
    mounting host).
    """

    capacity_gb: float = 1024.0
    used_gb: float = 0.0
    hosts: set["Host"] = dataclasses.field(default_factory=set)

    @property
    def free_gb(self) -> float:
        return self.capacity_gb - self.used_gb

    def allocate(self, size_gb: float) -> None:
        if size_gb < 0:
            raise ValueError(f"negative allocation {size_gb}")
        if size_gb > self.free_gb + 1e-9:
            raise CapacityError(
                f"datastore {self.name!r}: need {size_gb:.1f} GB, free {self.free_gb:.1f} GB"
            )
        self.used_gb += size_gb

    def reclaim(self, size_gb: float) -> None:
        if size_gb < 0:
            raise ValueError(f"negative reclaim {size_gb}")
        self.used_gb = max(0.0, self.used_gb - size_gb)


@dataclasses.dataclass(eq=False)
class Host(ManagedEntity):
    """An ESXi-style hypervisor host.

    ``memory_overcommit`` is the admission headroom: powered-on guest
    memory may reach ``memory_gb × memory_overcommit`` (ballooning/page
    sharing make >1.0 the norm).
    """

    memory_gb: float = 128.0
    memory_overcommit: float = 1.5
    state: HostState = HostState.CONNECTED
    cluster: typing.Optional["Cluster"] = None
    datastores: set[Datastore] = dataclasses.field(default_factory=set)
    networks: set[Network] = dataclasses.field(default_factory=set)
    vms: set["VirtualMachine"] = dataclasses.field(default_factory=set)
    # Running totals over the powered-on members of ``vms``. Only
    # VirtualMachine writes them, as its power state, memory or host
    # changes, so admission never recounts the guests. Memory is kept in
    # whole MB: an integer total stays exact, and for MB-sized guests it
    # equals the float sum in any order.
    powered_on_vms: int = dataclasses.field(default=0, init=False, repr=False)
    powered_on_mb: int = dataclasses.field(default=0, init=False, repr=False)

    @property
    def is_usable(self) -> bool:
        return self.state == HostState.CONNECTED

    @property
    def memory_in_use_gb(self) -> float:
        """Guest memory of powered-on VMs (what admission counts)."""
        return self.powered_on_mb / MB_PER_GB

    @property
    def memory_limit_gb(self) -> float:
        return self.memory_gb * self.memory_overcommit

    def can_admit(self, memory_gb: float) -> bool:
        """Would a ``memory_gb`` guest fit under the admission limit?"""
        return self.memory_in_use_gb + memory_gb <= self.memory_limit_gb + 1e-9

    def mount(self, datastore: Datastore) -> None:
        self.datastores.add(datastore)
        datastore.hosts.add(self)
        if self.cluster is not None:
            self.cluster.views_changed()

    def attach_network(self, network: Network) -> None:
        self.networks.add(network)


class _ClusterViewed:
    """A Host field whose writes clear its cluster's cached views.

    The descriptor has no ``__get__``, so reads fall through to the
    instance ``__dict__`` like a plain attribute.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def __set__(self, host: Host, value: typing.Any) -> None:
        host.__dict__[self.name] = value
        cluster = host.__dict__.get("cluster")
        if cluster is not None:
            cluster.views_changed()


Host.state = _ClusterViewed("state")  # type: ignore[assignment]


@dataclasses.dataclass(eq=False)
class Cluster(ManagedEntity):
    """A DRS/HA cluster of hosts sharing placement decisions.

    Hosts join only through ``add_host``. ``usable_hosts`` and
    ``shared_datastores()`` are kept, not rebuilt per call: the writes
    that can change them (``Host.state``, ``Host.mount`` and ``add_host``)
    clear them, and the next read recomputes. A cleared view is replaced,
    never edited, so a caller holding an old list keeps a consistent
    snapshot.
    """

    hosts: list[Host] = dataclasses.field(default_factory=list, init=False)
    _usable: typing.Optional[list[Host]] = dataclasses.field(
        default=None, init=False, repr=False
    )
    _shared: typing.Optional[list[Datastore]] = dataclasses.field(
        default=None, init=False, repr=False
    )

    def add_host(self, host: Host) -> None:
        if host in self.hosts:
            raise ValueError(f"host {host.name!r} already in cluster {self.name!r}")
        self.hosts.append(host)
        host.cluster = self
        self.views_changed()

    def views_changed(self) -> None:
        """Drop the cached views; the next read recomputes them."""
        self._usable = None
        self._shared = None

    @property
    def usable_hosts(self) -> list[Host]:
        """Connected hosts in join order (a live view; do not mutate)."""
        usable = self._usable
        if usable is None:
            usable = self._usable = [host for host in self.hosts if host.is_usable]
        return usable

    @property
    def vm_count(self) -> int:
        return sum(len(host.vms) for host in self.hosts)

    def shared_datastores(self) -> list[Datastore]:
        """Datastores mounted by every usable host (valid placement
        targets), in ``entity_id`` order so callers pick deterministically
        (a live view; do not mutate)."""
        shared = self._shared
        if shared is None:
            usable = self.usable_hosts
            common = set(usable[0].datastores) if usable else set()
            for host in usable[1:]:
                common &= host.datastores
            shared = self._shared = sorted(common, key=lambda ds: ds.entity_id)
        return shared


@dataclasses.dataclass(eq=False)
class Datacenter(ManagedEntity):
    """Top-level container: clusters plus datacenter-wide storage/networks."""

    clusters: list[Cluster] = dataclasses.field(default_factory=list)
    datastores: list[Datastore] = dataclasses.field(default_factory=list)
    networks: list[Network] = dataclasses.field(default_factory=list)

    def add_cluster(self, cluster: Cluster) -> None:
        self.clusters.append(cluster)

    @property
    def hosts(self) -> list[Host]:
        return [host for cluster in self.clusters for host in cluster.hosts]

    @property
    def vms(self) -> list["VirtualMachine"]:
        return [vm for host in self.hosts for vm in host.vms]


class CapacityError(Exception):
    """Raised when a datastore cannot satisfy an allocation."""
