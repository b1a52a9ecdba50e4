"""The management control plane — the paper's subject.

A :class:`ManagementServer` is a vCenter-style manager: it owns an
inventory, a transactional database, an inventory lock manager, a task
manager with concurrency limits, and one host-agent channel per hypervisor.
Operations (:mod:`repro.operations`) run as simulated processes that consume
these services; when linked clones remove the data-plane cost, contention
for *these* resources is what caps provisioning throughput.

Scale-out (:class:`ShardedControlPlane`) partitions hosts across multiple
servers — the design response the paper's conclusions point at.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.controlplane.bus": (
            "AgentProxy",
            "Message",
            "MessageBus",
            "Topic",
            "TopicStats",
        ),
        "repro.controlplane.costs": ("ControlPlaneConfig", "ControlPlaneCosts", "DEFAULT_COSTS"),
        "repro.controlplane.database": ("DatabaseModel",),
        "repro.controlplane.host_agent": ("HostAgent", "HostAgentError"),
        "repro.controlplane.locks": ("LockManager",),
        "repro.controlplane.resilience": (
            "BreakerPolicy",
            "BreakerState",
            "CircuitBreaker",
            "DeadLetter",
            "NO_RETRY",
            "RetryPolicy",
            "TaskDeadlineExceeded",
        ),
        "repro.controlplane.server": ("ManagementServer", "NULL_BUS"),
        "repro.controlplane.shard": ("ShardedControlPlane",),
        "repro.controlplane.stats_sync": ("StatsCollector",),
        "repro.controlplane.task_manager": ("Task", "TaskManager", "TaskState"),
    },
)

__all__ = [
    "AgentProxy",
    "BreakerPolicy",
    "BreakerState",
    "CircuitBreaker",
    "ControlPlaneConfig",
    "DeadLetter",
    "ControlPlaneCosts",
    "DEFAULT_COSTS",
    "DatabaseModel",
    "HostAgent",
    "HostAgentError",
    "LockManager",
    "ManagementServer",
    "Message",
    "MessageBus",
    "NO_RETRY",
    "NULL_BUS",
    "Topic",
    "TopicStats",
    "RetryPolicy",
    "ShardedControlPlane",
    "StatsCollector",
    "Task",
    "TaskDeadlineExceeded",
    "TaskManager",
    "TaskState",
]
