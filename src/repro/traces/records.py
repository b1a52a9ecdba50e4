"""The trace-record schema."""

from __future__ import annotations

import dataclasses
import math
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.controlplane.task_manager import Task


@dataclasses.dataclass(frozen=True, slots=True)
class TraceRecord:
    """One completed management operation, as a log line would record it."""

    op_type: str
    submitted_at: float
    started_at: float
    finished_at: float
    success: bool
    control_s: float      # attributed control-plane seconds
    data_s: float         # attributed data-plane seconds
    org: str = ""
    task_id: int = 0
    error: str = ""

    @property
    def latency(self) -> float:
        return self.finished_at - self.submitted_at

    @property
    def queue_wait(self) -> float:
        return self.started_at - self.submitted_at

    @classmethod
    def from_task(cls, task: "Task") -> "TraceRecord":
        """Convert a completed control-plane task into a trace record.

        When the task carries a real (finished) span tree, the plane
        seconds come from the spans and are cross-checked against the
        task's own plane totals — the two are maintained by different
        code paths, so drift means an instrumentation bug.
        """
        if task.finished_at is None or task.started_at is None:
            raise ValueError(f"task {task.task_id} has not finished")
        control_s = task.plane_seconds("control")
        data_s = task.plane_seconds("data")
        span = task.span
        if not span.is_null and span.finished:
            from repro.tracing import plane_seconds_from_span

            for plane, task_value in (("control", control_s), ("data", data_s)):
                span_value = plane_seconds_from_span(span, plane)
                if not math.isclose(
                    span_value, task_value, rel_tol=1e-6, abs_tol=1e-9
                ):
                    raise ValueError(
                        f"task {task.task_id} {plane}-plane drift: spans say "
                        f"{span_value:.9f}s, task totals say {task_value:.9f}s"
                    )
            control_s = plane_seconds_from_span(span, "control")
            data_s = plane_seconds_from_span(span, "data")
        return cls(
            op_type=task.op_type,
            submitted_at=task.submitted_at,
            started_at=task.started_at,
            finished_at=task.finished_at,
            success=task.state.value == "success",
            control_s=control_s,
            data_s=data_s,
            task_id=task.task_id,
            error=task.error or "",
        )

    def to_dict(self) -> dict[str, typing.Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, typing.Any]) -> "TraceRecord":
        fields = {field.name for field in dataclasses.fields(cls)}
        unknown = set(payload) - fields
        if unknown:
            raise ValueError(f"unknown trace fields: {sorted(unknown)}")
        return cls(**payload)

    FIELDS: typing.ClassVar[tuple[str, ...]] = (
        "op_type",
        "submitted_at",
        "started_at",
        "finished_at",
        "success",
        "control_s",
        "data_s",
        "org",
        "task_id",
        "error",
    )
