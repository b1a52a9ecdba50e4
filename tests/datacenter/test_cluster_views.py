"""Kept cluster views, stored chain depths and one-pass placement picks
against from-scratch recomputation.

``Cluster.usable_hosts`` and ``Cluster.shared_datastores()`` are cached
and cleared by the writes that can change them; ``DiskBacking.chain_depth``
is stored at construction; ``PlacementEngine`` picks in one loop. The
scans and ``min``/``max`` key expressions below are the definitions they
replace; they live only here.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.placement import PlacementEngine, PlacementError
from repro.datacenter import (
    Cluster,
    Datastore,
    DiskBacking,
    Host,
    HostState,
    PowerState,
    VirtualDisk,
    VirtualMachine,
)
from repro.storage.linked_clone import merge_leaf_into_parent

DATASTORES = 5


def scan_usable(cluster: Cluster) -> list[Host]:
    return [host for host in cluster.hosts if host.state == HostState.CONNECTED]


def scan_shared(cluster: Cluster) -> list[Datastore]:
    usable = scan_usable(cluster)
    if not usable:
        return []
    shared = set(usable[0].datastores)
    for host in usable[1:]:
        shared &= host.datastores
    return sorted(shared, key=lambda ds: ds.entity_id)


def scan_depth(backing: DiskBacking) -> int:
    depth = 1
    while backing.parent is not None:
        depth += 1
        backing = backing.parent
    return depth


def scan_host_candidates(cluster, memory_gb, exclude):
    """The candidate list, or the error text, of the rescanning pick."""
    candidates = [host for host in scan_usable(cluster) if host.entity_id not in exclude]
    if not candidates:
        return f"cluster {cluster.name!r} has no usable hosts"
    if memory_gb > 0.0:
        candidates = [host for host in candidates if host.can_admit(memory_gb)]
        if not candidates:
            return f"no host in {cluster.name!r} can admit {memory_gb:.0f} GB"
    return candidates


def scan_datastore_candidates(cluster, required_gb, exclude):
    candidates = [ds for ds in scan_shared(cluster) if ds.free_gb >= required_gb]
    filtered = [ds for ds in candidates if ds.entity_id not in exclude]
    candidates = filtered or candidates
    if not candidates:
        return f"no shared datastore in {cluster.name!r} with {required_gb:.1f} GB free"
    return candidates


def outcome(pick, *args, **kwargs):
    try:
        return pick(*args, **kwargs)
    except PlacementError as exc:
        return str(exc)


def round_robin(pick_name, cluster, count, *args, **kwargs):
    """``count`` picks of one fresh round-robin engine: the candidate list."""
    engine = PlacementEngine("round_robin")
    pick = getattr(engine, pick_name)
    first = outcome(pick, cluster, *args, **kwargs)
    if isinstance(first, str):
        return first
    return [first] + [pick(cluster, *args, **kwargs) for _ in range(count - 1)]


def admission_edges(cluster: Cluster) -> list[float]:
    """Guest sizes at and around each usable host's 1e-9 admission edge."""
    sizes = [0.0, 1.0, 4.0]
    for host in cluster.hosts:
        room = host.memory_gb * host.memory_overcommit - host.powered_on_mb / 1024
        for offset in (-1e-9, 0.0, 1e-9, 2e-9):
            if room + offset > 0.0:
                sizes.append(room + offset)
    return sizes


def check(cluster: Cluster, vms: list[VirtualMachine], exclusions) -> None:
    usable = cluster.usable_hosts
    assert usable == scan_usable(cluster)
    assert cluster.usable_hosts is usable  # kept, not rebuilt per read
    shared = cluster.shared_datastores()
    assert shared == scan_shared(cluster)
    assert cluster.shared_datastores() is shared

    for vm in vms:
        for disk in vm.disks:
            for backing in disk.backing.chain():
                assert backing.chain_depth == scan_depth(backing)
        expected = max((scan_depth(disk.backing) for disk in vm.disks), default=0)
        assert vm.max_chain_depth == expected

    least = PlacementEngine()
    host_ids, ds_ids = exclusions
    for memory_gb in admission_edges(cluster):
        for exclude in ((), set(host_ids), {host.entity_id for host in usable}):
            expected = scan_host_candidates(cluster, memory_gb, exclude)
            got = outcome(least.choose_host, cluster, memory_gb=memory_gb, exclude_hosts=exclude)
            if isinstance(expected, str):
                assert got == expected
                continue
            assert got is min(expected, key=lambda host: (len(host.vms), host.entity_id))
            assert round_robin(
                "choose_host", cluster, len(expected), memory_gb=memory_gb, exclude_hosts=exclude
            ) == expected

    for required_gb in (0.0, 10.0, 50.0, 99.0, 100.0, 1e9):
        # Excluding every datastore falls back to the unexcluded pick.
        for exclude in ((), set(ds_ids), {ds.entity_id for ds in shared}):
            expected = scan_datastore_candidates(cluster, required_gb, exclude)
            got = outcome(
                least.choose_datastore, cluster, required_gb, exclude_datastores=exclude
            )
            if isinstance(expected, str):
                assert got == expected
                continue
            assert got is max(expected, key=lambda ds: (ds.free_gb, ds.entity_id))
            assert round_robin(
                "choose_datastore", cluster, len(expected), required_gb,
                exclude_datastores=exclude,
            ) == expected


index = st.integers(min_value=0, max_value=7)
# Whole-MB guest sizes up to 64 GB, so hosts reach their admission limit.
memory = st.integers(min_value=1, max_value=64 * 1024).map(lambda mb: mb / 1024)
step = st.one_of(
    st.tuples(st.just("state"), index, st.sampled_from(HostState)),
    st.tuples(st.just("mount"), index, index),
    st.tuples(st.just("add_host"), st.sets(index, max_size=DATASTORES), st.booleans()),
    st.tuples(st.just("vm"), index, index, memory),
    st.tuples(st.just("power"), index),
    st.tuples(st.just("snapshot"), index),
    st.tuples(st.just("delete_snapshot"), index),
    st.tuples(st.just("linked_clone"), index, index),
    st.tuples(st.just("fill"), index, st.sampled_from((0.0, 10.0, 25.0, 50.0))),
)


@settings(max_examples=100, deadline=None)
@given(
    steps=st.lists(step, max_size=30),
    excluded_hosts=st.sets(index, max_size=3),
    excluded_datastores=st.sets(index, max_size=3),
)
def test_kept_views_and_picks_match_rescans(steps, excluded_hosts, excluded_datastores):
    cluster = Cluster(entity_id="cluster-1", name="gold")
    datastores = [
        Datastore(entity_id=f"ds-{n}", name=f"lun{n}", capacity_gb=100.0)
        for n in range(DATASTORES)
    ]
    hosts: list[Host] = []
    vms: list[VirtualMachine] = []

    def new_host(mounts, join_first: bool) -> None:
        host = Host(entity_id=f"host-{len(hosts)}", name=f"esx{len(hosts)}", memory_gb=16.0)
        if join_first:
            cluster.add_host(host)
        for n in sorted(mounts):
            host.mount(datastores[n % DATASTORES])
        if not join_first:
            cluster.add_host(host)
        hosts.append(host)

    for n in range(3):
        new_host(range(DATASTORES - n), join_first=bool(n % 2))
    for n in range(2):
        base = DiskBacking(datastore=datastores[n], size_gb=1.0)
        vms.append(
            VirtualMachine(
                entity_id=f"vm-{n}",
                name=f"vm{n}",
                memory_gb=8.0,
                power_state=PowerState.ON,
                host=hosts[n],
                disks=[VirtualDisk("disk0", base, 1.0)],
            )
        )
    exclusions = (
        [f"host-{n % 8}" for n in excluded_hosts],
        [f"ds-{n % DATASTORES}" for n in excluded_datastores],
    )
    check(cluster, vms, exclusions)

    for kind, *args in steps:
        if kind == "state":
            hosts[args[0] % len(hosts)].state = args[1]
        elif kind == "mount":
            hosts[args[0] % len(hosts)].mount(datastores[args[1] % DATASTORES])
        elif kind == "add_host":
            new_host(args[0], join_first=args[1])
        elif kind == "vm":
            base = DiskBacking(datastore=datastores[args[1] % DATASTORES], size_gb=1.0)
            vm = VirtualMachine(
                entity_id=f"vm-{len(vms)}",
                name=f"vm{len(vms)}",
                memory_gb=args[2],
                power_state=PowerState.ON,
                host=hosts[args[0] % len(hosts)],
                disks=[VirtualDisk("disk0", base, 1.0)],
            )
            vms.append(vm)
        elif kind == "power":
            vm = vms[args[0] % len(vms)]
            vm.power_state = PowerState.OFF if vm.power_state is PowerState.ON else PowerState.ON
        elif kind == "snapshot":
            vms[args[0] % len(vms)].take_snapshot(f"snap-{len(steps)}")
        elif kind == "delete_snapshot":
            vm = vms[args[0] % len(vms)]
            for disk in vm.disks:
                parent = disk.backing.parent
                if parent is not None and parent.children == 1:
                    merge_leaf_into_parent(disk)
            if vm.snapshots:
                vm.snapshots.pop()
        elif kind == "linked_clone":
            source = vms[args[0] % len(vms)]
            delta = DiskBacking(
                datastore=source.disks[0].datastore, size_gb=0.0, parent=source.disks[0].backing
            )
            vms.append(
                VirtualMachine(
                    entity_id=f"vm-{len(vms)}",
                    name=f"vm{len(vms)}",
                    host=hosts[args[1] % len(hosts)],
                    disks=[VirtualDisk("disk0", delta, 1.0)],
                )
            )
        elif kind == "fill":
            datastores[args[0] % DATASTORES].used_gb = args[1]
        check(cluster, vms, exclusions)


def test_old_view_list_is_not_edited_by_a_change():
    """A caller holding a view keeps its snapshot; the next read is new."""
    cluster = Cluster(entity_id="cluster-1", name="gold")
    datastore = Datastore(entity_id="ds-1", name="lun1")
    host = Host(entity_id="host-1", name="esx1")
    cluster.add_host(host)
    host.mount(datastore)
    usable, shared = cluster.usable_hosts, cluster.shared_datastores()
    host.state = HostState.MAINTENANCE
    assert usable == [host] and shared == [datastore]
    assert cluster.usable_hosts == [] and cluster.shared_datastores() == []


def test_random_policy_draws_from_the_same_candidates():
    cluster = Cluster(entity_id="cluster-1", name="gold")
    datastores = [Datastore(entity_id=f"ds-{n}", name=f"lun{n}") for n in range(4)]
    for n in range(5):
        host = Host(entity_id=f"host-{n}", name=f"esx{n}")
        cluster.add_host(host)
        for datastore in datastores:
            host.mount(datastore)
    cluster.hosts[2].state = HostState.MAINTENANCE
    engine = PlacementEngine("random", rng=random.Random(7))
    reference = random.Random(7)
    for _ in range(20):
        assert engine.choose_host(cluster, exclude_hosts={"host-0"}) is reference.choice(
            [host for host in scan_usable(cluster) if host.entity_id != "host-0"]
        )
        assert engine.choose_datastore(cluster, 1.0) is reference.choice(scan_shared(cluster))
