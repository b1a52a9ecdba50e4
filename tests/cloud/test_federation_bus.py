"""Bus-routed federation: stealing, spillover, failover, exactly-once.

These tests drive :class:`FederatedCloud` with a message bus (which
makes it bus-routed), pinning the routing mechanics the module docstring
promises: locality-preferred delivery to the healthy home, saturation
spillover to the shared pool, work-stealing by idle siblings, forwarding
pending submissions off a crashed shard, and the cross-shard
exactly-once invariant (``check_federation_exactly_once``).
"""

from repro.cloud import FederatedCloud, Organization, VAppState
from repro.cloud.federation import SHARED_TOPIC, local_topic_name
from repro.controlplane.bus import MessageBus
from repro.controlplane.costs import ControlPlaneConfig
from repro.faults.chaos import check_federation_exactly_once
from repro.sim import RandomStreams, Simulator
from repro.sim.events import AllOf


def build(
    shards=2,
    seed=11,
    bus=True,
    max_inflight=2,
    spill_queue_depth=2,
    **kw,
):
    sim = Simulator()
    streams = RandomStreams(seed)
    cloud = FederatedCloud(
        sim,
        streams,
        shard_count=shards,
        hosts_per_shard=4,
        config=ControlPlaneConfig(max_inflight_tasks=max_inflight),
        bus=MessageBus(sim, rng=streams.stream("fed-bus")) if bus else None,
        spill_queue_depth=spill_queue_depth,
        **kw,
    )
    return sim, cloud


def deploy_all(sim, cloud, orgs, count, vms=1, spacing_s=0.0):
    """Launch ``count`` concurrent deploys round-robined over ``orgs``."""
    vapps = []

    def proc(org, name, delay):
        if delay:
            yield sim.timeout(delay)
        vapp = yield from cloud.deploy(org, "small-linux-linked", vms, name)
        vapps.append(vapp)

    procs = [
        sim.spawn(
            proc(orgs[i % len(orgs)], f"app-{i}", i * spacing_s), name=f"deploy-{i}"
        )
        for i in range(count)
    ]
    sim.run(until=AllOf(sim, procs))
    sim.run()
    return vapps


def test_routing_follows_the_bus():
    _, routed = build(shards=2)
    assert set(routed.bus.topic_stats()) == {
        SHARED_TOPIC, local_topic_name("vc-1"), local_topic_name("vc-2")
    }
    sim, pinned = build(shards=2, bus=False)
    assert pinned.bus is None
    # Without a bus the affinity router runs the deploy on the home shard.
    vapps = deploy_all(sim, pinned, [Organization("acme")], count=2)
    assert all(vapp.state == VAppState.RUNNING for vapp in vapps)
    assert pinned.federation_totals() == {
        "steals": 0, "spills": 0, "reroutes": 0, "remote_completions": 0
    }
    assert pinned.unresolved_submissions() == []


def test_healthy_home_rides_local_topic():
    sim, cloud = build(shards=2, max_inflight=8, spill_queue_depth=50)
    org = Organization("acme")
    vapps = deploy_all(sim, cloud, [org], count=3)
    assert all(vapp.state == VAppState.RUNNING for vapp in vapps)
    totals = cloud.federation_totals()
    assert totals["steals"] == totals["spills"] == totals["reroutes"] == 0
    home = cloud.home_of(org)
    stats = cloud.bus.topic_stats()
    assert stats[local_topic_name(cloud.plane.shards[home].name)].delivered == 3
    assert stats.get(SHARED_TOPIC) is None or stats[SHARED_TOPIC].published == 0
    check_federation_exactly_once(cloud)


def test_saturated_home_spills_and_sibling_steals():
    sim, cloud = build(shards=2, max_inflight=1, spill_queue_depth=1)
    org = Organization("acme")  # one hot org → one hot home shard
    # Staggered arrivals: later deploys publish while the home's task
    # queue is visibly backed up, which is what trips the spill check.
    vapps = deploy_all(sim, cloud, [org], count=8, spacing_s=2.0)
    assert all(vapp.state == VAppState.RUNNING for vapp in vapps)
    home = cloud.home_of(org)
    sibling = 1 - home
    assert cloud.shard_stats[home].spills > 0
    assert cloud.shard_stats[sibling].steals > 0
    assert cloud.shard_stats[sibling].remote_completions > 0
    check_federation_exactly_once(cloud)


def test_crashed_home_reroutes_new_submissions():
    sim, cloud = build(shards=2, max_inflight=4, spill_queue_depth=50)
    org = Organization("acme")
    home = shard_of(cloud, org)
    # Crash window: the home shard rejects everything for a while.
    home_shard = cloud.plane.shards[home]
    home_shard.faults.block("test-crash")

    def heal():
        yield sim.timeout(60.0)
        home_shard.faults.unblock("test-crash")

    sim.spawn(heal(), name="heal")
    vapps = deploy_all(sim, cloud, [org], count=4)
    assert all(vapp.state == VAppState.RUNNING for vapp in vapps)
    assert cloud.shard_stats[home].reroutes == 4
    assert cloud.shard_stats[1 - home].steals == 4
    # Every VM landed on the survivor's hosts, not the crashed home's.
    survivor_hosts = set(cloud.plane.shards[1 - home].hosts)
    assert all(vm.host in survivor_hosts for vapp in vapps for vm in vapp.vms)
    check_federation_exactly_once(cloud)


def test_pending_submissions_forward_off_crashed_shard():
    from repro.cloud.federation import _FedSubmission

    sim, cloud = build(shards=2, max_inflight=4, spill_queue_depth=50)
    org = Organization("acme")
    home = shard_of(cloud, org)
    home_shard = cloud.plane.shards[home]
    # The crash hits with a submission already sitting on the home's
    # local topic (it was in flight when the window opened): the local
    # consumer must forward it to the shared pool, key intact, where the
    # survivor executes it.
    home_shard.faults.block("test-crash")
    submission = _FedSubmission(
        org=org, item_name="small-linux-linked", vm_count=1,
        vapp_name="orphan", home=home,
    )
    reply = sim.event(name="reply:orphan")
    sim.spawn(
        cloud.bus.publish(
            local_topic_name(home_shard.name),
            submission,
            key="fed-submit:test:orphan",
            reply=reply,
        ),
        name="stranded-publish",
    )
    sim.run(until=reply)
    # Heal before draining: the down shard's pool consumer polls for
    # health every interval, so a permanently-blocked shard never lets
    # the simulation quiesce.
    home_shard.faults.unblock("test-crash")
    sim.run()
    vapp = reply.value
    assert vapp.state == VAppState.RUNNING
    assert cloud.shard_stats[home].reroutes == 1
    assert cloud.shard_stats[1 - home].steals == 1
    stats = cloud.bus.topic_stats()
    assert stats[local_topic_name(home_shard.name)].forwarded == 1
    assert stats[SHARED_TOPIC].delivered == 1
    # The stolen deploy ran against the survivor's own inventory.
    survivor_hosts = set(cloud.plane.shards[1 - home].hosts)
    assert all(vm.host in survivor_hosts for vm in vapp.vms)
    check_federation_exactly_once(cloud)


def test_delete_routes_to_executing_shard():
    sim, cloud = build(shards=2, max_inflight=1, spill_queue_depth=1)
    org = Organization("acme")
    vapps = deploy_all(sim, cloud, [org], count=6, spacing_s=2.0)
    stolen = [
        vapp
        for vapp in vapps
        if any(
            vm.host in set(cloud.plane.shards[1 - cloud.home_of(org)].hosts)
            for vm in vapp.vms
        )
    ]
    assert stolen  # the point of the constrained build

    def proc(vapp):
        yield from cloud.delete(vapp)

    for vapp in vapps:
        sim.run(until=sim.spawn(proc(vapp)))
    assert all(vapp.state == VAppState.DELETED for vapp in vapps)
    assert org.used_vms == 0


def test_unresolved_submissions_empty_after_quiesce():
    sim, cloud = build(shards=2)
    org = Organization("acme")
    deploy_all(sim, cloud, [org], count=2)
    assert cloud.unresolved_submissions() == []


# -- health-aware homing (works in affinity mode too) ---------------------


def shard_of(cloud, org):
    cloud.director_for(org)
    return cloud.home_of(org)


def test_homing_skips_crashed_shard():
    sim, cloud = build(shards=3, bus=False)
    cloud.plane.shards[0].faults.block("test-crash")
    org = Organization("acme")
    assert shard_of(cloud, org) == 1
    cloud.plane.shards[0].faults.unblock("test-crash")


def test_homing_prefers_least_loaded_shard():
    sim, cloud = build(shards=2, bus=False, max_inflight=1)
    first = Organization("first")
    second = Organization("second")
    assert shard_of(cloud, first) == 0
    assert shard_of(cloud, second) == 1
    # Load up shard 0 mid-deploy, then home a new org: rotation points
    # back at shard 0, but least-loaded homing sends it to idle shard 1.
    def slow():
        yield from cloud.deploy(first, "small-linux-linked", 4, "busy")

    sim.spawn(slow(), name="busy-deploy")
    sim.run(until=sim.timeout(1.0))
    assert cloud.plane.load_of(cloud.plane.shards[0]) > 0
    third = Organization("third")
    assert shard_of(cloud, third) == 1
    sim.run()


def test_homing_reduces_to_round_robin_when_idle():
    _, cloud = build(shards=3, bus=False)
    homes = [shard_of(cloud, Organization(f"org-{i}")) for i in range(6)]
    assert homes == [0, 1, 2, 0, 1, 2]


def test_homing_all_down_falls_back_to_rotation():
    _, cloud = build(shards=2, bus=False)
    for shard in cloud.plane.shards:
        shard.faults.block("test-crash")
    org = Organization("acme")
    assert shard_of(cloud, org) == 0  # deterministic rotation pick
