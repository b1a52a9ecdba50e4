"""The typed inventory: id allocation, lookup, and lifecycle bookkeeping.

One ``Inventory`` per management-server instance (per shard, under
scale-out). The control plane's database cost model charges per inventory
mutation; this class is the in-memory side of that ledger.
"""

from __future__ import annotations

import bisect
import operator
import typing

from repro.datacenter.entities import (
    Cluster,
    Datacenter,
    Datastore,
    Host,
    ManagedEntity,
    Network,
)
from repro.datacenter.vm import VirtualMachine


class InventoryError(Exception):
    """Lookup failures and duplicate registrations."""


_PREFIXES: dict[type, str] = {
    Datacenter: "dc",
    Cluster: "cluster",
    Host: "host",
    Datastore: "ds",
    Network: "net",
    VirtualMachine: "vm",
}

_entity_id = operator.attrgetter("entity_id")


class Inventory:
    """A registry of managed entities with stable, readable ids."""

    def __init__(self) -> None:
        self._by_id: dict[str, ManagedEntity] = {}
        self._by_type: dict[type, dict[str, ManagedEntity]] = {}
        self._counters: dict[str, int] = {}
        # VMs in entity_id order, kept with bisect so target picks never
        # re-sort the whole inventory.
        self._vms: list[VirtualMachine] = []
        self.mutations = 0  # total register/unregister events (DB write proxy)

    # -- registration --------------------------------------------------------

    def next_id(self, entity_type: type) -> str:
        prefix = _PREFIXES.get(entity_type)
        if prefix is None:
            raise InventoryError(f"unknown entity type {entity_type.__name__}")
        self._counters[prefix] = self._counters.get(prefix, 0) + 1
        return f"{prefix}-{self._counters[prefix]}"

    def register(self, entity: ManagedEntity) -> ManagedEntity:
        if entity.entity_id in self._by_id:
            raise InventoryError(f"duplicate id {entity.entity_id!r}")
        self._by_id[entity.entity_id] = entity
        self._by_type.setdefault(type(entity), {})[entity.entity_id] = entity
        if type(entity) is VirtualMachine:
            bisect.insort(self._vms, entity, key=_entity_id)
        self.mutations += 1
        return entity

    def unregister(self, entity: ManagedEntity) -> None:
        if entity.entity_id not in self._by_id:
            raise InventoryError(f"unknown id {entity.entity_id!r}")
        del self._by_id[entity.entity_id]
        del self._by_type[type(entity)][entity.entity_id]
        if type(entity) is VirtualMachine:
            del self._vms[bisect.bisect_left(self._vms, entity.entity_id, key=_entity_id)]
        self.mutations += 1

    def create(self, entity_type: type, name: str, **fields: typing.Any) -> typing.Any:
        """Allocate an id, construct, and register in one step."""
        entity = entity_type(entity_id=self.next_id(entity_type), name=name, **fields)
        return self.register(entity)

    # -- lookup ----------------------------------------------------------------

    def get(self, entity_id: str) -> ManagedEntity:
        try:
            return self._by_id[entity_id]
        except KeyError:
            raise InventoryError(f"no entity with id {entity_id!r}") from None

    def find(self, entity_type: type, name: str) -> typing.Any:
        for entity in self.all(entity_type):
            if entity.name == name:
                return entity
        raise InventoryError(f"no {entity_type.__name__} named {name!r}")

    def all(self, entity_type: type) -> list[typing.Any]:
        return list(self._by_type.get(entity_type, {}).values())

    def vms_by_id(self) -> list[VirtualMachine]:
        """Every registered VM in ``entity_id`` order (a live view: do not mutate)."""
        return self._vms

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)
