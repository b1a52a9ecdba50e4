"""Unit tests for declarative fault schedules."""

import random

import pytest

from repro.faults import (
    AgentDegrade,
    CopyFlakiness,
    DbSlowdown,
    FaultSchedule,
    HostFlap,
    SPEC_KINDS,
    random_fault_schedule,
    standard_fault_schedule,
)


def test_spec_window_validation():
    with pytest.raises(ValueError, match="start_s"):
        HostFlap(start_s=-1.0, duration_s=10.0)
    with pytest.raises(ValueError, match="duration_s"):
        HostFlap(start_s=0.0, duration_s=0.0)


def test_agent_degrade_must_degrade_something():
    with pytest.raises(ValueError, match="must degrade"):
        AgentDegrade(start_s=0.0, duration_s=10.0)
    with pytest.raises(ValueError, match="latency_factor"):
        AgentDegrade(start_s=0.0, duration_s=10.0, latency_factor=0.5)
    with pytest.raises(ValueError, match="drop_rate"):
        AgentDegrade(start_s=0.0, duration_s=10.0, drop_rate=1.5)


def test_db_slowdown_factor_validation():
    with pytest.raises(ValueError, match="factor"):
        DbSlowdown(start_s=0.0, duration_s=10.0, factor=1.0)


def test_copy_flakiness_rate_validation():
    with pytest.raises(ValueError, match="fail_rate"):
        CopyFlakiness(start_s=0.0, duration_s=10.0, fail_rate=0.0)


def test_schedule_rejects_non_specs():
    with pytest.raises(TypeError, match="FaultSpec"):
        FaultSchedule(["not a spec"])


def test_horizon_is_latest_window_end():
    schedule = FaultSchedule(
        [
            HostFlap(start_s=0.0, duration_s=30.0),
            DbSlowdown(start_s=50.0, duration_s=25.0, factor=2.0),
        ]
    )
    assert schedule.horizon_s == 75.0
    assert FaultSchedule().horizon_s == 0.0


def test_spec_kinds_registry_complete():
    assert set(SPEC_KINDS) == {
        "host_flap",
        "agent_degrade",
        "db_slowdown",
        "datastore_outage",
        "copy_flakiness",
        "shard_crash",
        "server_crash",
        "message_drop",
        "message_duplicate",
        "message_delay",
        "message_reorder",
        "topic_partition",
    }


def test_standard_schedule_quiesces_inside_duration():
    duration = 1000.0
    schedule = standard_fault_schedule(duration)
    assert len(schedule) == 5
    assert schedule.horizon_s <= duration
    for spec in schedule:
        assert 0.0 <= spec.start_s < duration


def test_standard_schedule_scale_widens_blast_radius():
    small = standard_fault_schedule(600.0, scale=1.0)
    large = standard_fault_schedule(600.0, scale=2.0)

    def degrade(schedule):
        return next(s for s in schedule if s.kind == "agent_degrade")

    assert degrade(large).count > degrade(small).count
    assert degrade(large).drop_rate > degrade(small).drop_rate
    assert degrade(large).latency_factor > degrade(small).latency_factor
    # Rates stay valid however hard the scale is pushed.
    harsh = standard_fault_schedule(600.0, scale=10.0)
    assert degrade(harsh).drop_rate <= 0.9


def test_standard_schedule_duration_validation():
    with pytest.raises(ValueError, match="duration_s"):
        standard_fault_schedule(0.0)


def test_random_schedule_bounded_and_deterministic():
    a = random_fault_schedule(random.Random(3), 500.0)
    b = random_fault_schedule(random.Random(3), 500.0)
    assert a.specs == b.specs
    assert 1 <= len(a) <= 6
    for spec in a:
        assert spec.end_s <= 500.0 * 0.8 + 500.0 * 0.5 + 1e-9


def test_describe_uses_names_not_reprs():
    # Selections hold live entities whose dataclass reprs recurse through
    # the inventory graph; describe must only ever read .name.
    class Entity:
        name = "esx07"

        def __repr__(self):  # pragma: no cover - the point is it's unused
            raise RuntimeError("describe must not repr entities")

    flap = HostFlap(start_s=0.0, duration_s=1.0)
    assert flap.describe([Entity()]) == "host_flap[esx07]"
