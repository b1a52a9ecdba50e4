"""Declarative fault injection for the control-plane simulator.

``repro.faults`` turns the old ad-hoc ``_fail_next`` lists into a uniform
model: every injectable component owns a :class:`FaultHook`, and a
:class:`FaultInjector` process arms/disarms timed :class:`FaultSpec`
windows from a :class:`FaultSchedule` against live targets.

This package must stay import-light: ``repro.controlplane`` and
``repro.storage`` import it, so it never imports them at runtime.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.faults.errors": (
            "InjectedFault",
            "MessageLost",
            "ServerCrashed",
            "ShardUnavailable",
            "TransientError",
        ),
        "repro.faults.hooks": ("ALL_KEYS", "FaultHook"),
        "repro.faults.injector": ("FaultEvent", "FaultInjector", "FaultTargets"),
        "repro.faults.manifest": ("GroundTruthManifest", "GroundTruthWindow", "window_from_spec"),
        "repro.faults.schedule": (
            "AgentDegrade",
            "CopyFlakiness",
            "DatastoreOutage",
            "DbSlowdown",
            "FaultSchedule",
            "FaultSpec",
            "HostFlap",
            "MESSAGE_FAULT_KINDS",
            "MessageDelay",
            "MessageDrop",
            "MessageDuplicate",
            "MessageFault",
            "MessageReorder",
            "ServerCrash",
            "ShardCrash",
            "SPEC_KINDS",
            "TopicPartition",
            "message_fault",
            "random_fault_schedule",
            "standard_fault_schedule",
        ),
    },
)

__all__ = [
    "ALL_KEYS",
    "AgentDegrade",
    "CopyFlakiness",
    "DatastoreOutage",
    "DbSlowdown",
    "FaultEvent",
    "FaultHook",
    "FaultInjector",
    "FaultSchedule",
    "FaultSpec",
    "FaultTargets",
    "GroundTruthManifest",
    "GroundTruthWindow",
    "HostFlap",
    "InjectedFault",
    "MESSAGE_FAULT_KINDS",
    "MessageDelay",
    "MessageDrop",
    "MessageDuplicate",
    "MessageFault",
    "MessageLost",
    "MessageReorder",
    "ServerCrash",
    "ServerCrashed",
    "ShardCrash",
    "ShardUnavailable",
    "SPEC_KINDS",
    "TopicPartition",
    "TransientError",
    "message_fault",
    "random_fault_schedule",
    "standard_fault_schedule",
    "window_from_spec",
]
