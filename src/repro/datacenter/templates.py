"""Template specifications and the template library.

A :class:`TemplateSpec` is the *shape* of a VM (vCPUs, memory, disk size);
the library instantiates golden-image template VMs from specs onto chosen
datastores. Cloud catalogs (:mod:`repro.cloud.catalog`) reference these
templates.
"""

from __future__ import annotations

import dataclasses

from repro.datacenter.entities import Datastore
from repro.datacenter.inventory import Inventory
from repro.datacenter.vm import DiskBacking, PowerState, VirtualDisk, VirtualMachine


@dataclasses.dataclass(frozen=True)
class TemplateSpec:
    """Immutable description of a deployable image."""

    name: str
    vcpus: int = 2
    memory_gb: float = 4.0
    disk_gb: float = 40.0

    def __post_init__(self) -> None:
        if self.vcpus < 1:
            raise ValueError("vcpus must be >= 1")
        if self.memory_gb <= 0 or self.disk_gb <= 0:
            raise ValueError("memory_gb and disk_gb must be positive")


# Specs spanning the range the paper's clouds deploy: small dev/test boxes
# through database-class images. Disk sizes drive the full-clone data cost.
SMALL_LINUX = TemplateSpec("small-linux", vcpus=1, memory_gb=2.0, disk_gb=16.0)
MEDIUM_LINUX = TemplateSpec("medium-linux", vcpus=2, memory_gb=4.0, disk_gb=40.0)
LARGE_WINDOWS = TemplateSpec("large-windows", vcpus=4, memory_gb=8.0, disk_gb=80.0)
DATABASE = TemplateSpec("database", vcpus=8, memory_gb=32.0, disk_gb=200.0)

DEFAULT_SPECS = (SMALL_LINUX, MEDIUM_LINUX, LARGE_WINDOWS, DATABASE)


class TemplateLibrary:
    """Instantiates and tracks golden-image templates in an inventory."""

    def __init__(self, inventory: Inventory) -> None:
        self.inventory = inventory
        self._templates: dict[str, VirtualMachine] = {}

    def publish(self, spec: TemplateSpec, datastore: Datastore) -> VirtualMachine:
        """Create a template VM for ``spec`` backed on ``datastore``."""
        if spec.name in self._templates:
            raise ValueError(f"template {spec.name!r} already published")
        datastore.allocate(spec.disk_gb)
        backing = DiskBacking(datastore=datastore, size_gb=spec.disk_gb, read_only=True)
        template = self.inventory.create(
            VirtualMachine,
            name=f"template:{spec.name}",
            vcpus=spec.vcpus,
            memory_gb=spec.memory_gb,
            is_template=True,
            power_state=PowerState.OFF,
        )
        template.attach_disk(
            VirtualDisk(label="disk-0", backing=backing, provisioned_gb=spec.disk_gb)
        )
        self._templates[spec.name] = template
        return template

    def get(self, name: str) -> VirtualMachine:
        try:
            return self._templates[name]
        except KeyError:
            raise KeyError(f"no template named {name!r}") from None

    def __len__(self) -> int:
        return len(self._templates)
