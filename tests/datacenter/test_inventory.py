"""Unit tests for the inventory registry and template library."""

import pytest

from repro.datacenter import (
    Datastore,
    Host,
    Inventory,
    InventoryError,
    TemplateLibrary,
    TemplateSpec,
    VirtualMachine,
)
from repro.datacenter.templates import MEDIUM_LINUX


@pytest.fixture
def inventory():
    return Inventory()


def test_ids_are_sequential_per_type(inventory):
    first = inventory.create(Host, name="esx01")
    second = inventory.create(Host, name="esx02")
    vm = inventory.create(VirtualMachine, name="vm1")
    assert first.entity_id == "host-1"
    assert second.entity_id == "host-2"
    assert vm.entity_id == "vm-1"


def test_register_duplicate_id_rejected(inventory):
    host = inventory.create(Host, name="esx01")
    with pytest.raises(InventoryError):
        inventory.register(host)


def test_get_and_contains(inventory):
    host = inventory.create(Host, name="esx01")
    assert inventory.get("host-1") is host
    assert "host-1" in inventory
    assert "host-99" not in inventory
    with pytest.raises(InventoryError):
        inventory.get("host-99")


def test_find_by_name(inventory):
    inventory.create(Host, name="esx01")
    target = inventory.create(Host, name="esx02")
    assert inventory.find(Host, "esx02") is target
    with pytest.raises(InventoryError):
        inventory.find(Host, "missing")


def test_unregister_removes(inventory):
    host = inventory.create(Host, name="esx01")
    inventory.unregister(host)
    assert "host-1" not in inventory
    with pytest.raises(InventoryError):
        inventory.unregister(host)


def test_counts_and_len(inventory):
    inventory.create(Host, name="a")
    inventory.create(VirtualMachine, name="v")
    assert len(inventory.all(Host)) == 1
    assert len(inventory.all(VirtualMachine)) == 1
    assert len(inventory) == 2


def test_mutations_counted(inventory):
    host = inventory.create(Host, name="a")
    inventory.unregister(host)
    assert inventory.mutations == 2


def test_vms_by_id_is_the_sorted_vm_inventory(inventory):
    def expected():
        return sorted(inventory.all(VirtualMachine), key=lambda vm: vm.entity_id)

    inventory.create(Host, name="esx01")  # other types stay out of the view
    vms = [inventory.create(VirtualMachine, name=f"vm{n}") for n in range(1, 13)]
    # String order: vm-10, vm-11 and vm-12 sort between vm-1 and vm-2.
    assert [vm.entity_id for vm in inventory.vms_by_id()][:5] == [
        "vm-1", "vm-10", "vm-11", "vm-12", "vm-2",
    ]
    assert inventory.vms_by_id() == expected()
    for vm in (vms[9], vms[0], vms[8], vms[11]):  # vm-10, vm-1, vm-9, vm-12
        inventory.unregister(vm)
        assert inventory.vms_by_id() == expected()
    inventory.register(vms[0])
    inventory.create(VirtualMachine, name="vm13")
    assert inventory.vms_by_id() == expected()
    assert len(inventory.vms_by_id()) == len(inventory.all(VirtualMachine)) == 10


def test_next_id_unknown_type(inventory):
    with pytest.raises(InventoryError):
        inventory.next_id(str)


class TestTemplateLibrary:
    def test_publish_creates_template_vm(self, inventory):
        datastore = inventory.create(Datastore, name="lun", capacity_gb=500.0)
        library = TemplateLibrary(inventory)
        template = library.publish(MEDIUM_LINUX, datastore)
        assert template.is_template
        assert template.total_disk_gb == MEDIUM_LINUX.disk_gb
        assert template.disks[0].backing.read_only
        assert datastore.used_gb == MEDIUM_LINUX.disk_gb
        assert library.get(MEDIUM_LINUX.name) is template
        assert len(library) == 1

    def test_publish_twice_rejected(self, inventory):
        datastore = inventory.create(Datastore, name="lun", capacity_gb=500.0)
        library = TemplateLibrary(inventory)
        library.publish(MEDIUM_LINUX, datastore)
        with pytest.raises(ValueError):
            library.publish(MEDIUM_LINUX, datastore)

    def test_get_missing_template(self, inventory):
        library = TemplateLibrary(inventory)
        with pytest.raises(KeyError):
            library.get("nope")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TemplateSpec("bad", vcpus=0)
        with pytest.raises(ValueError):
            TemplateSpec("bad", disk_gb=0.0)
        with pytest.raises(ValueError):
            TemplateSpec("bad", memory_gb=-1.0)
