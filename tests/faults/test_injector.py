"""Integration tests: the injector driving schedules against a live rig."""

import random

import pytest

from repro.core.experiments import StormRig
from repro.datacenter import HostState
from repro.faults import (
    AgentDegrade,
    DatastoreOutage,
    DbSlowdown,
    FaultInjector,
    FaultSchedule,
    FaultTargets,
    HostFlap,
)


@pytest.fixture
def rig():
    return StormRig(seed=3, hosts=4, datastores=2)


def make_injector(rig, schedule, seed=5):
    return FaultInjector(
        rig.sim,
        FaultTargets.for_server(rig.server),
        schedule,
        rng=random.Random(seed),
    )


def drain(rig, injector):
    process = rig.sim.spawn(injector.drain(), name="drain")
    rig.sim.run(until=process)


def test_targets_resolve_from_server(rig):
    targets = FaultTargets.for_server(rig.server)
    assert len(targets.hosts) == 4
    assert len(targets.datastores) == 2
    assert targets.agent_hook(rig.hosts[0]) is rig.server.agent(rig.hosts[0]).faults


def test_named_selection_rejects_unknown_host(rig):
    targets = FaultTargets.for_server(rig.server)
    with pytest.raises(KeyError, match="esx99"):
        targets.pick_hosts(("esx99",), 1, random.Random(0))


def test_flap_window_flips_and_restores_state(rig):
    schedule = FaultSchedule(
        [HostFlap(start_s=10.0, duration_s=20.0, hosts=("esx00",))]
    )
    injector = make_injector(rig, schedule).start()
    rig.sim.run(until=15.0)
    assert rig.hosts[0].state == HostState.DISCONNECTED
    assert injector.active == 1
    drain(rig, injector)
    assert rig.hosts[0].state == HostState.CONNECTED
    assert injector.active == 0


def test_overlapping_flaps_restore_exactly_once(rig):
    schedule = FaultSchedule(
        [
            HostFlap(start_s=0.0, duration_s=30.0, hosts=("esx01",)),
            HostFlap(start_s=10.0, duration_s=40.0, hosts=("esx01",)),
        ]
    )
    injector = make_injector(rig, schedule).start()
    rig.sim.run(until=35.0)
    # First window closed, second still open: host must stay down.
    assert rig.hosts[1].state == HostState.DISCONNECTED
    drain(rig, injector)
    assert rig.hosts[1].state == HostState.CONNECTED


def test_degrade_window_arms_and_disarms_agent_hook(rig):
    schedule = FaultSchedule(
        [
            AgentDegrade(
                start_s=5.0,
                duration_s=10.0,
                hosts=("esx02",),
                latency_factor=4.0,
                drop_rate=0.25,
            )
        ]
    )
    injector = make_injector(rig, schedule).start()
    hook = rig.server.agent(rig.hosts[2]).faults
    rig.sim.run(until=6.0)
    assert hook.latency_factor == pytest.approx(4.0)
    assert hook.drop_rate == pytest.approx(0.25)
    drain(rig, injector)
    assert hook.latency_factor == 1.0
    assert hook.drop_rate == 0.0
    assert not hook.armed


def test_db_and_datastore_windows_hit_their_hooks(rig):
    schedule = FaultSchedule(
        [
            DbSlowdown(start_s=0.0, duration_s=10.0, factor=2.5),
            DatastoreOutage(start_s=0.0, duration_s=10.0, datastores=("lun00",)),
        ]
    )
    injector = make_injector(rig, schedule).start()
    rig.sim.run(until=1.0)
    assert rig.server.database.faults.latency_factor == pytest.approx(2.5)
    assert rig.server.copy_engine.faults.blocked(rig.datastores[0].entity_id)
    assert not rig.server.copy_engine.faults.blocked(rig.datastores[1].entity_id)
    drain(rig, injector)
    assert rig.server.database.faults.latency_factor == 1.0
    assert not rig.server.copy_engine.faults.armed


def test_timeline_records_arm_disarm_pairs(rig):
    schedule = FaultSchedule(
        [HostFlap(start_s=2.0, duration_s=3.0, hosts=("esx00",))]
    )
    injector = make_injector(rig, schedule).start()
    drain(rig, injector)
    lines = injector.timeline()
    assert len(lines) == 2
    assert "arm" in lines[0] and "host_flap[esx00]" in lines[0]
    assert "disarm" in lines[1]
    assert injector.active == 0


def test_start_twice_rejected(rig):
    injector = make_injector(rig, FaultSchedule())
    injector.start()
    with pytest.raises(RuntimeError, match="already started"):
        injector.start()
