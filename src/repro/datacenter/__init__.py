"""Virtual-infrastructure inventory: the objects the control plane manages.

This mirrors the vSphere managed-object model at the granularity the paper's
analysis needs: datacenters contain clusters of hosts, hosts mount
datastores and attach networks, VMs live on a host with virtual disks whose
backings form linked-clone chains.

The model is *pure data* — no simulation time, no queueing. All timing and
contention live in :mod:`repro.controlplane`, :mod:`repro.storage`, and
:mod:`repro.operations`, which manipulate these objects.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.datacenter.entities": (
            "Cluster",
            "Datacenter",
            "Datastore",
            "Host",
            "HostState",
            "Network",
        ),
        "repro.datacenter.inventory": ("Inventory", "InventoryError"),
        "repro.datacenter.templates": ("TemplateLibrary", "TemplateSpec"),
        "repro.datacenter.vm": (
            "DiskBacking",
            "PowerState",
            "Snapshot",
            "VirtualDisk",
            "VirtualMachine",
        ),
    },
)

__all__ = [
    "Cluster",
    "Datacenter",
    "Datastore",
    "DiskBacking",
    "Host",
    "HostState",
    "Inventory",
    "InventoryError",
    "Network",
    "PowerState",
    "Snapshot",
    "TemplateLibrary",
    "TemplateSpec",
    "VirtualDisk",
    "VirtualMachine",
]
