"""Property test: nothing is lost, whatever the fault schedule.

The R-X3 acceptance invariant: after an arbitrary randomized fault
schedule plays out over a deploy storm, the system quiesces — every
fault window disarmed, every started task SUCCESS or ERROR (nothing
stranded QUEUED/RUNNING), every request process finished, and no
injected fault left armed.

Randomized schedules include ``server_crash`` windows (the management
server halts, in-flight work is interrupted, and a restart replays the
recovery path), so the property also covers crash/recovery quiescence:
the server must end restarted and every crash-parked task adjudicated.

Schedules also include the ``message_*`` / ``topic_partition`` kinds;
with ``bus=True`` the same storm runs fully bus-mediated, so the
property additionally covers transport chaos: dropped, duplicated,
delayed, reordered, and partitioned messages must still quiesce with
every task accounted and the bus fault hook disarmed. (With ``bus=False``
those windows arm as no-ops — the schedule stays portable.)
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cloud.catalog import Catalog, CatalogItem
from repro.cloud.director import CloudDirector, DeployRequest
from repro.cloud.tenancy import Organization
from repro.controlplane import ControlPlaneConfig
from repro.controlplane.resilience import BreakerPolicy, NO_RETRY, RetryPolicy
from repro.core.experiments import StormRig
from repro.datacenter import HostState
from repro.datacenter.templates import MEDIUM_LINUX
from repro.faults import FaultInjector, FaultTargets, random_fault_schedule
from repro.sim.events import AllOf


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    resilient=st.booleans(),
    bus=st.booleans(),
)
def test_every_started_task_is_accounted_for(seed, resilient, bus):
    duration = 300.0
    if resilient:
        config = ControlPlaneConfig(
            retry_policy=RetryPolicy(max_attempts=3, base_backoff_s=0.5),
            retry_budget_ratio=0.5,
            task_deadline_s=150.0,
            breaker=BreakerPolicy(failure_threshold=3, cooldown_s=20.0),
        )
        director_policy = RetryPolicy(max_attempts=3, base_backoff_s=1.0)
    else:
        config = ControlPlaneConfig()
        director_policy = NO_RETRY

    rig = StormRig(
        seed=seed, hosts=4, datastores=2, config=config, bus=bus,
    )
    catalog = Catalog("prop")
    item = catalog.add(CatalogItem(name="web", template_name=MEDIUM_LINUX.name))
    org = Organization("org", quota_vms=10_000, quota_storage_gb=1e6)
    director = CloudDirector(
        rig.server, rig.cluster, rig.library, catalog, retry_policy=director_policy
    )
    schedule = random_fault_schedule(random.Random(seed), duration)
    injector = FaultInjector(
        rig.sim,
        FaultTargets.for_server(rig.server),
        schedule,
        rng=random.Random(seed + 1),
    ).start()

    outcomes = []
    requests = []

    def one(index):
        try:
            yield from director.deploy(
                DeployRequest(org=org, item=item, vm_count=1, vapp_name=f"r{index}")
            )
        except Exception as error:  # noqa: BLE001 - recorded, asserted below
            outcomes.append(error)
        else:
            outcomes.append(None)

    def arrivals():
        rng = random.Random(seed + 2)
        for index in range(10):
            yield rig.sim.timeout(rng.uniform(0.0, duration / 10))
            requests.append(rig.sim.spawn(one(index), name=f"req-{index}"))

    source = rig.sim.spawn(arrivals(), name="arrivals")
    rig.sim.run(until=source)
    rig.sim.run(until=AllOf(rig.sim, requests))
    rig.sim.run(until=rig.sim.spawn(injector.drain(), name="drain"))
    rig.sim.run()  # drain any trailing timers; must terminate

    # The simulation quiesced: nothing scheduled, no window armed.
    assert rig.sim.peek() == float("inf")
    assert injector.active == 0

    # Every request ran to completion (deploy absorbs per-VM failures).
    assert len(outcomes) == 10
    assert all(error is None for error in outcomes)

    # Every started task is terminal; none stranded queued or running.
    # assert_accounted is the hard invariant every exhibit runs too.
    tasks = rig.server.tasks
    tasks.assert_accounted()
    assert len(tasks.succeeded()) + len(tasks.failed()) == len(tasks.tasks)

    # Any server crash ended in a completed recovery: server back up,
    # nothing still parked awaiting a reconciliation verdict.
    assert not rig.server.crashed
    assert rig.server.recovery.parked_count == 0
    for epoch in rig.server.recovery.crashes:
        assert epoch.restarted_at is not None

    # Dead letters only exist where a retry policy made the promise, and
    # each one maps to a failed task.
    if not resilient:
        assert tasks.dead_letters == []
    failed_ids = {task.task_id for task in tasks.failed()}
    assert all(letter.task_id in failed_ids for letter in tasks.dead_letters)

    # Fault windows restored what they touched.
    assert all(host.state == HostState.CONNECTED for host in rig.hosts)
    assert not rig.server.database.faults.armed
    assert not rig.server.copy_engine.faults.armed
    assert not rig.server.faults.armed
    for host in rig.hosts:
        assert not rig.server.agent(host).faults.armed
    if rig.bus is not None and rig.bus.mediated:
        assert not rig.bus.faults.armed
