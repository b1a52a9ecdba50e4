"""Plane attribution: where operation time is spent (R-F5, R-F8).

The paper's headline is an attribution claim — with linked clones the
control plane, not the data plane, limits provisioning. These helpers
compute that attribution from trace records (which carry per-task
control/data seconds) and from traced tasks' phase spans.
"""

from __future__ import annotations

import typing

from repro.controlplane.task_manager import Task
from repro.traces.records import TraceRecord


def plane_breakdown(records: typing.Sequence[TraceRecord]) -> dict[str, float]:
    """Fractions of attributed operation time on each plane.

    ``unattributed`` covers queueing and scheduling gaps between phases
    (time the op spent waiting for control-plane resources without an
    active phase) — itself control-plane pressure, reported separately
    for honesty.
    """
    control = sum(record.control_s for record in records)
    data = sum(record.data_s for record in records)
    wall = sum(record.latency for record in records)
    if wall <= 0:
        return {"control": 0.0, "data": 0.0, "unattributed": 0.0}
    return {
        "control": control / wall,
        "data": data / wall,
        "unattributed": max(0.0, (wall - control - data) / wall),
    }


def phase_breakdown(tasks: typing.Sequence[Task]) -> list[tuple[str, str, float]]:
    """Aggregate (phase, plane, total seconds) across tasks, largest first.

    Reads each task's span tree: every finished, error-free span that
    carries a ``plane`` tag is one operation phase. Numeric suffixes
    (``copy_disk_0``/``copy_disk_1``) fold together. The tasks must come
    from a traced run.
    """
    totals: dict[tuple[str, str], float] = {}
    for task in tasks:
        root = task.span
        if root.is_null:
            raise ValueError(
                f"task {task.task_id} has no span tree: phase_breakdown needs a traced run"
            )
        for span in root.tracer.subtree(root):
            plane = span.tags.get("plane")
            if plane is None or not span.finished or not span.ok:
                continue
            base = span.name.rstrip("0123456789").rstrip("_")
            totals[(base, plane)] = totals.get((base, plane), 0.0) + span.duration
    return sorted(
        [(name, plane, seconds) for (name, plane), seconds in totals.items()],
        key=lambda item: -item[2],
    )
