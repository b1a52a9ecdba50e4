"""Linked-clone mechanics: delta backings, anchors, and consolidation.

A linked clone needs an *anchor*: a read-only backing in the source VM's
chain to parent the new delta on. Templates publish read-only bases, so
they anchor directly; cloning a writable VM first snapshots it (that
snapshot is control-plane work — part of why linked clones stress the
management plane).
"""

from __future__ import annotations

from repro.datacenter.entities import Datastore
from repro.datacenter.vm import DiskBacking, VirtualDisk, VirtualMachine

# Delta backings start essentially empty; 0.05 GB covers format metadata
# and the first copy-on-write grains.
INITIAL_DELTA_GB = 0.05

# Beyond this chain depth, per-IO redirection overhead makes operators
# consolidate. (View/vCloud deployments of the era used similar bounds.)
MAX_CHAIN_DEPTH = 30


class LinkedCloneError(Exception):
    """Chain-structure violations (no anchor, chain too deep)."""


def ensure_clone_anchor(source: VirtualMachine) -> list[DiskBacking]:
    """Return per-disk read-only anchors, snapshotting the source if needed.

    Returns the backing list aligned with ``source.disks``.
    """
    if not source.disks:
        raise LinkedCloneError(f"source {source.name!r} has no disks")
    if all(_anchor_of(disk) is not None for disk in source.disks):
        return [_anchor_of(disk) for disk in source.disks]  # type: ignore[misc]
    snapshot = source.take_snapshot(f"clone-anchor-{len(source.snapshots)}")
    return list(snapshot.backings)


def has_clone_anchor(source: VirtualMachine) -> bool:
    """True if every disk already has a read-only anchor (no snapshot needed)."""
    return bool(source.disks) and all(
        _anchor_of(disk) is not None for disk in source.disks
    )


def _anchor_of(disk: VirtualDisk) -> DiskBacking | None:
    """The leaf itself if frozen, else the nearest read-only ancestor only
    when the leaf is empty (nothing written since the snapshot)."""
    if disk.backing.read_only:
        return disk.backing
    if disk.backing.parent is not None and disk.backing.size_gb == 0.0:
        parent = disk.backing.parent
        if parent.read_only:
            return parent
    return None


def create_linked_backing(
    anchor: DiskBacking,
    datastore: Datastore,
    initial_gb: float = INITIAL_DELTA_GB,
) -> DiskBacking:
    """Hang a new writable delta off ``anchor`` on ``datastore``.

    The delta may live on a different datastore than its parent (NFS-style
    linked clones); what may not happen is parenting on a writable backing.
    """
    if not anchor.read_only:
        raise LinkedCloneError("anchor backing must be read-only")
    if anchor.chain_depth + 1 > MAX_CHAIN_DEPTH:
        raise LinkedCloneError(
            f"chain depth {anchor.chain_depth + 1} exceeds limit {MAX_CHAIN_DEPTH}"
        )
    datastore.allocate(initial_gb)
    return DiskBacking(datastore=datastore, size_gb=initial_gb, parent=anchor)


def merge_leaf_into_parent(disk: VirtualDisk) -> float:
    """Merge the leaf delta into its parent (snapshot deletion).

    Returns the GB moved (the leaf's contents). The parent absorbs the
    leaf's bytes, becomes writable, and replaces it as the disk's backing.
    Only legal when the parent is this disk's private snapshot backing
    (exactly one child); merging into a shared linked-clone anchor would
    corrupt the siblings.
    """
    leaf = disk.backing
    parent = leaf.parent
    if parent is None:
        return 0.0
    if parent.children != 1:
        raise LinkedCloneError(
            f"cannot merge into shared backing (children={parent.children})"
        )
    moved_gb = leaf.size_gb
    leaf.datastore.reclaim(leaf.size_gb)
    parent.datastore.allocate(moved_gb)
    parent.size_gb += moved_gb
    parent.read_only = False
    parent.children -= 1
    disk.backing = parent
    return moved_gb
