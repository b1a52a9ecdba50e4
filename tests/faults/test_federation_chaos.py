"""Property: work-stealing preserves exactly-once, whatever the chaos.

The federation acceptance invariant: after a skewed deploy storm rides
the federation topics through an arbitrary fault point — a shard crash,
a full server crash with journal replay, or any of the message-fault
kinds overlaid on the topics — the system quiesces with no lost or
duplicated terminal task state across shard boundaries, no duplicated
placed VM anywhere in the federation, every topic drained, and every
submission's reply settled (``check_federation_exactly_once``). The
result's ``violations`` list is that checker's output; the property is
that it stays empty at every sampled point — also when one schedule
combines a server crash, a shard crash and a message fault.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faults.chaos import (
    HOT_SHARD,
    fault_sweep,
    federation_rig,
    hot_shard_crash,
    run_fault_point,
)
from repro.faults.schedule import MESSAGE_FAULT_KINDS, ShardCrash, message_fault

INTENSITY = {"drop": 0.3, "duplicate": 0.3, "delay": 2.0, "reorder": 0.5, "partition": 0.0}


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    crash_kind=st.sampled_from(["shard_crash", "server_crash", None]),
    message_kind=st.sampled_from(MESSAGE_FAULT_KINDS + (None,)),
    bus=st.booleans(),
)
def test_stealing_preserves_exactly_once(seed, crash_kind, message_kind, bus):
    rig = federation_rig(
        seed,
        total=10,
        concurrency=4,
        shards=3,
        hosts_per_shard=3,
        orgs=6,
        skew=0.8,
        spill_queue_depth=2,
        bus=bus,
    )
    faults = []
    if crash_kind is not None:
        faults.append(hot_shard_crash(crash_kind, 8.0, 25.0))
    if message_kind is not None:
        faults.append(message_fault(message_kind, INTENSITY[message_kind], 4.0, 30.0))
    result = run_fault_point(rig, faults)
    assert result.violations == []
    # Terminal accounting always balances, even when deploys fail.
    assert result.completed + result.failed == 10


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    server_crash_at=st.floats(min_value=1.0, max_value=20.0),
    shard_crash_at=st.floats(min_value=1.0, max_value=20.0),
    downtime=st.floats(min_value=5.0, max_value=40.0),
    other_shard=st.sampled_from(["vc-2", "vc-3"]),
    message_kind=st.sampled_from(MESSAGE_FAULT_KINDS),
    message_at=st.floats(min_value=0.0, max_value=15.0),
    bus=st.booleans(),
)
def test_combined_fault_families_preserve_exactly_once(
    seed, server_crash_at, shard_crash_at, downtime, other_shard, message_kind,
    message_at, bus,
):
    """One schedule: the hot shard crashes, a sibling rejects, messages misbehave."""
    assert other_shard != HOT_SHARD
    rig = federation_rig(
        seed,
        total=10,
        concurrency=4,
        shards=3,
        hosts_per_shard=3,
        orgs=6,
        skew=0.8,
        spill_queue_depth=2,
        bus=bus,
    )
    faults = [
        hot_shard_crash("server_crash", server_crash_at, downtime),
        ShardCrash(start_s=shard_crash_at, duration_s=downtime, shards=(other_shard,)),
        message_fault(message_kind, INTENSITY[message_kind], message_at, 30.0),
    ]
    # run_fault_point raises unless the run quiesces.
    result = run_fault_point(rig, faults)
    assert result.violations == []
    assert result.completed + result.failed == 10
    for shard in rig.env.plane.shards:
        shard.tasks.assert_accounted()


def test_sweep_smoke_holds_invariant_everywhere():
    results = fault_sweep("federation", [0], points_per_seed=7, total=12, concurrency=4)
    assert len(results) == 7
    assert all(point.ok for point in results)
    # The sweep is not vacuous: stealing and crash re-routing both fired
    # somewhere across the sampled points.
    assert sum(point.counters["steals"] for point in results) > 0
    assert sum(point.counters["reroutes"] for point in results) > 0


def test_crashed_shard_strands_affinity_but_not_bus():
    """The headline R-X8 contrast at property-test scale."""
    common = dict(total=12, concurrency=4, shards=3, hosts_per_shard=3, orgs=6, skew=0.9)
    crash = [hot_shard_crash("shard_crash", 6.0, 40.0)]
    affinity = run_fault_point(federation_rig(2, bus=False, **common), crash)
    bus = run_fault_point(federation_rig(2, bus=True, **common), crash)
    assert affinity.violations == [] and bus.violations == []
    assert affinity.failed > 0  # hot tenants stranded on the crashed home
    assert bus.failed == 0  # every submission re-routed to survivors
    assert bus.counters["reroutes"] + bus.counters["steals"] > 0
