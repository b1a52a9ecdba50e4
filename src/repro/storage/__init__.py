"""The storage data plane: bandwidth, copy engine, and linked-clone mechanics.

This is the substrate whose cost the paper's "most recent virtualization
techniques" (linked clones) nearly eliminate. Full clones move
disk-size-proportional bytes through a fair-shared storage link; linked
clones move only metadata. Both go through the same admission scheduler so
the control plane sees identical task structure either way.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.storage.bandwidth": ("FairShareLink", "Transfer"),
        "repro.storage.copy_engine": ("CopyEngine", "CopyFailed"),
        "repro.storage.linked_clone": (
            "LinkedCloneError",
            "create_linked_backing",
            "ensure_clone_anchor",
        ),
        "repro.storage.scheduler": ("CopyScheduler",),
    },
)

__all__ = [
    "CopyEngine",
    "CopyFailed",
    "CopyScheduler",
    "FairShareLink",
    "LinkedCloneError",
    "Transfer",
    "create_linked_backing",
    "ensure_clone_anchor",
]
