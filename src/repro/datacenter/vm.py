"""Virtual machines, virtual disks, backing chains, and snapshots.

The disk-backing chain is the heart of the paper's data-plane argument:

- A **full clone** copies the entire base backing: bytes moved scale with
  the virtual-disk size.
- A **linked clone** creates a new, initially-empty *delta* backing whose
  parent is a read-only snapshot backing of the source: bytes moved are
  (nearly) zero, but every clone still costs the control plane the same
  bookkeeping — which is exactly how the control plane becomes the
  bottleneck once clones go linked.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import typing

from repro.datacenter.entities import MB_PER_GB, Datastore, Host, ManagedEntity, Network

_backing_ids = itertools.count(1)


class PowerState(enum.Enum):
    ON = "poweredOn"
    OFF = "poweredOff"
    SUSPENDED = "suspended"


@dataclasses.dataclass
class DiskBacking:
    """One file in a virtual disk's backing chain.

    ``parent`` is None for a base backing; linked clones hang delta
    backings off shared read-only parents. ``size_gb`` is the *allocated*
    size of this link only (deltas start small and grow). ``chain_depth``
    counts the links from this backing to the base (base == 1); it is set
    once here, since ``parent`` never changes after construction.
    """

    datastore: Datastore
    size_gb: float
    parent: typing.Optional["DiskBacking"] = None
    read_only: bool = False
    backing_id: int = dataclasses.field(default_factory=lambda: next(_backing_ids))
    children: int = 0
    chain_depth: int = dataclasses.field(default=1, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.size_gb < 0:
            raise ValueError(f"negative backing size {self.size_gb}")
        if self.parent is not None:
            self.parent.children += 1
            self.chain_depth = self.parent.chain_depth + 1

    def chain(self) -> list["DiskBacking"]:
        """This backing and all ancestors, leaf first."""
        links = []
        backing: DiskBacking | None = self
        while backing is not None:
            links.append(backing)
            backing = backing.parent
        return links

    @property
    def logical_size_gb(self) -> float:
        """Size of the full logical disk (sum over the chain)."""
        return sum(link.size_gb for link in self.chain())


@dataclasses.dataclass
class VirtualDisk:
    """A virtual disk attached to a VM; points at the leaf of its chain."""

    label: str
    backing: DiskBacking
    provisioned_gb: float

    @property
    def datastore(self) -> Datastore:
        return self.backing.datastore

    @property
    def chain_depth(self) -> int:
        return self.backing.chain_depth


@dataclasses.dataclass
class Snapshot:
    """A point-in-time VM state; freezes the current leaf backings read-only."""

    name: str
    backings: list[DiskBacking]
    children: list["Snapshot"] = dataclasses.field(default_factory=list)


class _HostAccounted:
    """A VM field whose writes keep the host's powered-on totals.

    Every write, including the dataclass ``__init__``, takes the VM's
    share out of its host, stores the value, and adds the share to the
    (possibly new) host; writing ``host`` also moves the VM between the
    hosts' ``vms`` sets. The descriptor has no ``__get__``, so reads fall
    through to the instance ``__dict__`` like a plain attribute.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def __set__(self, vm: "VirtualMachine", value: typing.Any) -> None:
        state = vm.__dict__
        host = state.get("host")
        if host is not None:
            _count_on(vm, host, -1)
            if self.name == "host":
                host.vms.discard(vm)
        state[self.name] = value
        host = state.get("host")
        if host is not None:
            if self.name == "host":
                host.vms.add(vm)
            _count_on(vm, host, 1)


def _count_on(vm: "VirtualMachine", host: Host, sign: int) -> None:
    if vm.power_state is PowerState.ON:
        host.powered_on_vms += sign
        host.powered_on_mb += sign * round(vm.memory_gb * MB_PER_GB)


def _account_on_host(cls: type) -> type:
    """Install :class:`_HostAccounted` over the fields admission counts."""
    for name in ("memory_gb", "power_state", "host"):
        setattr(cls, name, _HostAccounted(name))
    return cls


@_account_on_host
@dataclasses.dataclass(eq=False)
class VirtualMachine(ManagedEntity):
    """A virtual machine (or template, when ``is_template``)."""

    vcpus: int = 2
    memory_gb: float = 4.0
    power_state: PowerState = PowerState.OFF
    host: typing.Optional[Host] = None
    disks: list[VirtualDisk] = dataclasses.field(default_factory=list)
    networks: list[Network] = dataclasses.field(default_factory=list)
    is_template: bool = False
    snapshots: list[Snapshot] = dataclasses.field(default_factory=list)
    created_at: float = 0.0
    destroyed_at: typing.Optional[float] = None

    @property
    def total_disk_gb(self) -> float:
        """Logical (provisioned) disk size across all disks."""
        return sum(disk.provisioned_gb for disk in self.disks)

    @property
    def max_chain_depth(self) -> int:
        depth = 0
        for disk in self.disks:
            if disk.backing.chain_depth > depth:
                depth = disk.backing.chain_depth
        return depth

    def place_on(self, host: Host) -> None:
        self.host = host

    def evacuate(self) -> None:
        self.host = None

    def attach_disk(self, disk: VirtualDisk) -> None:
        self.disks.append(disk)

    def take_snapshot(self, name: str) -> Snapshot:
        """Freeze current leaves read-only and attach fresh deltas.

        Mirrors the hypervisor behaviour: after a snapshot the running VM
        writes to new delta links whose parents are the frozen leaves.
        """
        frozen = []
        for disk in self.disks:
            leaf = disk.backing
            leaf.read_only = True
            frozen.append(leaf)
            disk.backing = DiskBacking(
                datastore=leaf.datastore, size_gb=0.0, parent=leaf
            )
        snapshot = Snapshot(name=name, backings=frozen)
        self.snapshots.append(snapshot)
        return snapshot
