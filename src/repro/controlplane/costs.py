"""Calibration constants for the control-plane cost model.

Magnitudes follow the public record for vSphere-era management planes:

- Soundararajan & Anderson (ISCA 2010) report management operations with
  multi-second end-to-end latencies dominated by management-server-side
  work, and a management server that saturates at tens of concurrent
  operations.
- vCenter of that era enforced per-host in-flight operation limits of ~8
  and datacenter-wide in-flight limits in the low hundreds.
- Inventory updates are row-per-entity database writes on the order of
  10-50 ms each; statistics/task tables dominate DB traffic.

Absolute values matter less than the *structure*: every operation pays a
fixed control-plane toll regardless of how many data bytes it moves. All
knobs are dataclass fields so ablations (R-T3) are one-line overrides.
"""

from __future__ import annotations

import dataclasses
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.controlplane.resilience import BreakerPolicy, RetryPolicy


@dataclasses.dataclass(frozen=True)
class ControlPlaneCosts:
    """Service-time medians (seconds) and shapes for control-plane work.

    Durations are drawn lognormal around these medians with ``sigma``
    (heavy-tailed bodies, matching measured management-op latency
    distributions).
    """

    # Database: one write covers one row-group (task row, VM row, stats row).
    db_write_s: float = 0.040
    db_read_s: float = 0.010
    # Effective per-row cost divisor when write batching is enabled.
    db_batch_factor: float = 4.0

    # Management-server CPU per phase (request validation, placement
    # scoring, config generation, result serialization). The ISCA'10
    # companion study measured seconds of management-server-side work per
    # operation; these medians reproduce that era's ~1-2s of serialized
    # server CPU per provisioning op.
    api_validate_s: float = 0.150
    placement_s: float = 0.600
    config_gen_s: float = 0.500
    result_commit_s: float = 0.350

    # Host-agent (hostd) service times per call kind.
    host_register_vm_s: float = 1.2
    host_create_disk_s: float = 0.8
    host_snapshot_s: float = 2.0
    host_power_on_s: float = 2.5
    host_power_off_s: float = 1.5
    host_reconfigure_s: float = 1.0
    host_destroy_s: float = 0.8
    host_rescan_s: float = 4.0
    host_add_connect_s: float = 12.0
    host_migrate_prep_s: float = 1.5

    # vMotion memory-copy rate (bytes/sec) for live migration data plane.
    vmotion_bps: float = 1.0 * 1024**3

    # Lognormal shape for all service-time draws.
    sigma: float = 0.35

    # Host-agent call timeout (failure detection).
    host_call_timeout_s: float = 120.0


@dataclasses.dataclass(frozen=True)
class ControlPlaneConfig:
    """Structural knobs of one management-server instance."""

    # Concurrency limits.
    max_inflight_tasks: int = 96        # datacenter-wide dispatch limit
    per_host_op_slots: int = 8          # hostd in-flight limit
    db_connections: int = 16            # connection pool
    cpu_workers: int = 4                # management-server op threads

    # Behavioural knobs (R-T3 ablations).
    db_batching: bool = False           # batch inventory/stat writes
    lock_granularity: str = "fine"      # "fine" (per-entity) | "coarse" (global)
    copy_slots_per_datastore: int = 4   # data-plane admission
    # Per-operation-type concurrency caps (e.g. {"clone_linked": 8}); ops
    # beyond the cap queue ahead of dispatch, mirroring the per-category
    # limits era management servers enforced. Empty = uncapped.
    per_type_limits: typing.Mapping[str, int] = dataclasses.field(
        default_factory=dict
    )

    # Resilience knobs (all off by default — the pre-resilience behaviour).
    # retry_policy: re-run task bodies failing with TransientError.
    retry_policy: "RetryPolicy | None" = None
    # task_deadline_s: per-task wall-clock budget from submission; bounds
    # queue wait and forbids retries that can't finish in time.
    task_deadline_s: float | None = None
    # breaker: per-host-agent circuit breaker policy.
    breaker: "BreakerPolicy | None" = None

    def __post_init__(self) -> None:
        if self.lock_granularity not in ("fine", "coarse"):
            raise ValueError(f"unknown lock granularity {self.lock_granularity!r}")
        for field in (
            "max_inflight_tasks",
            "per_host_op_slots",
            "db_connections",
            "cpu_workers",
            "copy_slots_per_datastore",
        ):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1")
        for op_type, limit in self.per_type_limits.items():
            if limit < 1:
                raise ValueError(f"per_type_limits[{op_type!r}] must be >= 1")
        if self.task_deadline_s is not None and self.task_deadline_s <= 0:
            raise ValueError("task_deadline_s must be positive")


DEFAULT_COSTS = ControlPlaneCosts()
DEFAULT_CONFIG = ControlPlaneConfig()
