"""Management operations: the verbs of the control plane.

Every operation decomposes into *phases*, each attributed to the control
plane (CPU, database, locks, host-agent calls) or the data plane (byte
copies, memory transfer). Phase attribution is what lets the analysis
pipeline show the paper's pivot: linked clones delete the data-plane
phases and leave the control-plane toll intact.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.operations.base": ("Operation", "OperationError", "OperationType", "phase"),
        "repro.operations.lifecycle": (
            "CreateSnapshot",
            "DeleteSnapshot",
            "DestroyVM",
            "ReconfigureVM",
        ),
        "repro.operations.maintenance": (
            "EnterMaintenance",
            "ExitMaintenance",
        ),
        "repro.operations.migration": ("MigrateVM",),
        "repro.operations.power": ("PowerOff", "PowerOn"),
        "repro.operations.provisioning": ("CloneVM", "DeployFromTemplate"),
        "repro.operations.reconfiguration": (
            "AddDatastore",
            "AddHost",
            "NetworkReconfig",
            "RescanDatastore",
        ),
    },
)

__all__ = [
    "AddDatastore",
    "AddHost",
    "CloneVM",
    "CreateSnapshot",
    "DeleteSnapshot",
    "DeployFromTemplate",
    "DestroyVM",
    "EnterMaintenance",
    "ExitMaintenance",
    "MigrateVM",
    "NetworkReconfig",
    "Operation",
    "OperationError",
    "OperationType",
    "PowerOff",
    "PowerOn",
    "ReconfigureVM",
    "RescanDatastore",
    "phase",
]
