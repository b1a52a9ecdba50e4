"""Chaos sweeps: randomized faults vs the exactly-once invariant.

The recovery subsystem's contract (``docs/recovery.md``) is that a
management-server crash at *any* point in *any* workload leaves every
admitted task in exactly one terminal state — succeeded or failed/dead-
lettered — with no duplicate terminal records, no duplicate dead letters,
and no duplicate provisioned VMs. The message bus (``docs/bus.md``)
extends the contract to the transport, and the shard federation
(``docs/federation.md``) extends it across shard boundaries. A claim like
that is only worth what its adversary costs, so this module runs fault
points and checks the invariant after every one.

A fault point is one loop, :func:`run_fault_point`: start a
:class:`~repro.faults.FaultInjector` on a :class:`FaultRig`'s targets, run
the rig's workload, drain the fault windows, run to quiescence, and check
the rig's invariant. Three builders make rigs: :func:`storm_rig` (a
closed-loop clone storm on one journaled server, direct or fully
bus-mediated), :func:`federation_rig` (a skewed deploy storm over a
shard federation) and :func:`deploy_rig` (the open-loop tenant deploy
storm behind R-X3, R-F-alerts, the triage harness and the ``repro
faults``/``metrics`` demos, in one of three resilience postures).
:func:`fault_sweep` draws randomized points for one
mode — ``crash``, ``message`` or ``federation`` — and feeds them to that
loop; tier-1 runs bounded sweeps, CI larger fixed-seed ones, and
``python -m repro.faults.chaos --mode MODE`` the full acceptance sweeps.
"""

from __future__ import annotations

import collections
import dataclasses
import random
import typing

from repro.controlplane.costs import DEFAULT_COSTS, ControlPlaneConfig
from repro.controlplane.resilience import (
    NO_RETRY,
    BreakerPolicy,
    RetryPolicy,
    TaskDeadlineExceeded,
)
from repro.faults.errors import InjectedFault, ShardUnavailable, TransientError
from repro.faults.injector import FaultInjector, FaultTargets
from repro.faults.manifest import GroundTruthManifest
from repro.faults.schedule import (
    MESSAGE_FAULT_KINDS,
    MESSAGE_FAULT_RANGES,
    SPEC_KINDS,
    FaultSchedule,
    FaultSpec,
    ServerCrash,
    draw_intensity,
    message_fault,
)
from repro.operations.base import OperationError
from repro.telemetry.slo import BurnWindow, LatencyRule, RatioRule, SloRule

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.controlplane.server import ManagementServer
    from repro.sim.kernel import Simulator
    from repro.sim.random import RandomStreams


def check_exactly_once(server: "ManagementServer") -> list[str]:
    """Every violation of the exactly-once invariant, as human-readable strings.

    Checks, in order: no task stranded mid-lifecycle; every journaled
    admit has exactly one journaled terminal record; at most one dead
    letter per task; every dead letter maps to a task that ended ERROR;
    and no VM name is placed twice (a re-issued clone must never
    materialize its VM twice).
    """
    violations: list[str] = []
    tasks = server.tasks
    for task in tasks.unaccounted():
        violations.append(
            f"task-{task.task_id} ({task.op_type}) stranded in {task.state.value}"
        )
    journal = server.journal
    terminal_counts = journal.terminal_counts()
    for task_id in journal.open_task_ids():
        violations.append(f"task-{task_id} admitted but never reached a terminal state")
    for task_id, count in sorted(terminal_counts.items()):
        if count != 1:
            violations.append(f"task-{task_id} has {count} terminal records")
        if journal.enabled and not journal.admitted(task_id):
            violations.append(f"task-{task_id} reached a terminal state unadmitted")
    dead_seen = collections.Counter(letter.task_id for letter in tasks.dead_letters)
    failed_ids = {task.task_id for task in tasks.failed()}
    for task_id, count in sorted(dead_seen.items()):
        if count > 1:
            violations.append(f"task-{task_id} dead-lettered {count} times")
        if task_id not in failed_ids:
            violations.append(f"task-{task_id} dead-lettered but not in ERROR state")
    # Ground truth: a clone's target name is its idempotency key, so two
    # live placed VMs sharing a name means a re-issue duplicated work.
    from repro.datacenter.vm import VirtualMachine

    placed_names = collections.Counter(
        vm.name
        for vm in server.inventory.all(VirtualMachine)
        if vm.host is not None and not vm.is_template
    )
    for name, count in sorted(placed_names.items()):
        if count > 1:
            violations.append(f"VM name {name!r} placed {count} times")
    return violations


@dataclasses.dataclass
class FaultRig:
    """The parts of a fault point that differ from one rig to the next.

    ``workload`` spawns the rig's workload, runs it to completion and
    returns its makespan. ``stop`` halts the rig's background processes
    (a telemetry scraper) once the fault windows have drained, so the run
    can quiesce. ``outcome`` returns (completed, failed, dead letters),
    ``check`` the invariant's violations, ``counters`` the rig's own
    tallies and ``per_shard`` one row per shard, all read once the run has
    quiesced. ``env`` is the rig's ``StormRig`` or ``FederatedCloud``, for
    callers that report more than the result holds. The injector draws
    from the ``injector_stream`` random stream.
    """

    sim: "Simulator"
    streams: "RandomStreams"
    targets: FaultTargets
    env: typing.Any
    workload: typing.Callable[[], float]
    outcome: typing.Callable[[], tuple[int, int, int]]
    check: typing.Callable[[], list[str]]
    counters: typing.Callable[[], dict[str, float]]
    per_shard: typing.Callable[[], list[dict]] = list
    stop: typing.Callable[[], None] = lambda: None
    injector_stream: str = "chaos-injector"


@dataclasses.dataclass
class FaultPointResult:
    """Outcome of one workload run under one fault schedule.

    ``ground_truth`` and ``timeline`` are the injector's resolved windows
    and its arm/disarm log (empty with no faults).
    """

    seed: int
    faults: tuple[FaultSpec, ...]
    completed: int
    failed: int
    dead_letters: int
    makespan_s: float
    violations: list[str]
    counters: dict[str, float] = dataclasses.field(default_factory=dict)
    per_shard: list[dict] = dataclasses.field(default_factory=list)
    ground_truth: GroundTruthManifest = dataclasses.field(
        default_factory=GroundTruthManifest
    )
    timeline: list[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def goodput_per_hour(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return self.completed * 3600.0 / self.makespan_s

    def require_ok(self) -> "FaultPointResult":
        """This result, or a ``RuntimeError`` listing its violations."""
        if self.violations:
            raise RuntimeError("exactly-once violated: " + "; ".join(self.violations))
        return self


def run_fault_point(
    rig: FaultRig, faults: typing.Sequence[FaultSpec] = ()
) -> FaultPointResult:
    """Run ``rig``'s workload under ``faults`` and check its invariant.

    The injector starts before the workload spawns, so a schedule replays
    event for event. With no faults no injector starts: the run is the
    rig's fault-free baseline. Raises if the simulation does not quiesce
    once every fault window has closed and the rig has stopped.
    """
    faults = tuple(faults)
    injector = None
    if faults:
        injector = FaultInjector(
            rig.sim,
            rig.targets,
            FaultSchedule(faults),
            rng=rig.streams.stream(rig.injector_stream),
        ).start()
    makespan = rig.workload()
    if injector is not None:
        rig.sim.run(until=rig.sim.spawn(injector.drain(), name="chaos-drain"))
    rig.stop()
    rig.sim.run()
    if rig.sim.peek() != float("inf"):
        raise RuntimeError("simulation did not quiesce after the fault point")
    completed, failed, dead_letters = rig.outcome()
    return FaultPointResult(
        seed=rig.streams.seed,
        faults=faults,
        completed=completed,
        failed=failed,
        dead_letters=dead_letters,
        makespan_s=makespan,
        violations=rig.check(),
        counters=rig.counters(),
        per_shard=rig.per_shard(),
        ground_truth=injector.ground_truth() if injector else GroundTruthManifest(),
        timeline=injector.timeline() if injector else [],
    )


def _retrying_config(max_inflight: int) -> ControlPlaneConfig:
    return ControlPlaneConfig(
        max_inflight_tasks=max_inflight,
        retry_policy=RetryPolicy(
            max_attempts=4, base_backoff_s=1.0, max_backoff_s=10.0, jitter=0.5
        ),
    )


def _mttr(server: "ManagementServer") -> float:
    """Time from the first crash until the last pre-crash task went terminal.

    0.0 when nothing crashed, or the crash landed after the backlog drained.
    """
    crashes = server.recovery.crashes
    if not crashes:
        return 0.0
    crashed_at = crashes[0].crashed_at
    affected = [
        task.finished_at
        for task in server.tasks.tasks
        if task.submitted_at <= crashed_at and (task.finished_at or 0.0) > crashed_at
    ]
    return max(affected, default=crashed_at) - crashed_at


def storm_rig(
    seed: int,
    total: int = 12,
    concurrency: int = 4,
    linked: bool = True,
    bus: bool = False,
) -> FaultRig:
    """A closed-loop clone storm on one journaled, retrying server.

    ``bus=True`` routes every hop (gateway→director, director→task-manager,
    task-manager→host-agent) through a mediated message bus, so
    at-least-once redelivery and idempotency-key dedup are both in play.
    Counters: ``parked``, the recovery verdicts (``adopted``,
    ``rolled_back``, ``reissued``, ``requeued``) and ``mttr_s``; with the
    bus, also the summed topic tallies.
    """
    from repro.core.experiments import StormRig

    # max_inflight below the worker concurrency keeps the dispatch queue
    # occupied, so crashes also land on tasks parked at the dispatch wait
    # (the requeue reconciliation path), not just mid-attempt.
    storm = StormRig(
        seed=seed, hosts=8, datastores=2, config=_retrying_config(max(1, concurrency - 1)),
        journal=True, bus=bus, direct_calls=not bus,
    )
    server = storm.server

    def counters() -> dict[str, float]:
        recovery = server.recovery
        tallies: dict[str, float] = {
            "parked": sum(epoch.parked for epoch in recovery.crashes),
            **recovery.verdict_totals(),
            "mttr_s": _mttr(server),
        }
        if bus:
            stats = storm.bus.topic_stats().values()
            for name in ("published", "delivered", "redelivered", "deduped", "dropped"):
                tallies[name] = sum(getattr(s, name) for s in stats)
            tallies["queue_waits"] = sum(s.waits for s in stats)
            tallies["queue_wait_s"] = sum(s.total_wait_s for s in stats)
        return tallies

    return FaultRig(
        sim=storm.sim,
        streams=storm.streams,
        targets=FaultTargets.for_server(server),
        env=storm,
        workload=lambda: storm.closed_loop_storm(total, concurrency, linked=linked)[
            "makespan_s"
        ],
        outcome=lambda: _server_outcome(server),
        check=lambda: check_exactly_once(server),
        counters=counters,
    )


def _server_outcome(server: "ManagementServer") -> tuple[int, int, int]:
    tasks = server.tasks
    return len(tasks.succeeded()), len(tasks.failed()), len(tasks.dead_letters)


def check_federation_exactly_once(cloud) -> list[str]:
    """Exactly-once across shard boundaries, as human-readable strings.

    Extends :func:`check_exactly_once` to a ``FederatedCloud``: every
    shard passes its own check; no VM name materializes on more than one
    shard (a submission that was stolen or forwarded must execute on
    exactly one survivor); every federation topic drains; and every
    bus-routed submission's reply settled — no tenant deploy silently
    lost between shards.
    """
    from repro.datacenter.vm import VirtualMachine

    violations: list[str] = []
    for shard in cloud.plane.shards:
        violations.extend(f"{shard.name}: {v}" for v in check_exactly_once(shard))
    placed: dict[str, list[str]] = {}
    for shard in cloud.plane.shards:
        for vm in shard.inventory.all(VirtualMachine):
            if vm.host is not None and not vm.is_template:
                placed.setdefault(vm.name, []).append(shard.name)
    for name, owners in sorted(placed.items()):
        if len(owners) > 1:
            violations.append(
                f"VM name {name!r} placed on {len(owners)} shards ({', '.join(owners)})"
            )
    bus = getattr(cloud, "bus", None)
    if bus is not None and getattr(bus, "mediated", False):
        for topic, depth in bus.depths().items():
            if depth:
                violations.append(f"topic {topic} left {depth} undelivered messages")
    for key in cloud.unresolved_submissions():
        violations.append(f"submission {key} never settled (lost across shards)")
    return violations


# The shard the federation rig's skewed tenants are homed on.
HOT_SHARD = "vc-1"


def hot_shard_crash(kind: str, start_s: float, duration_s: float) -> FaultSpec:
    """A ``shard_crash`` or ``server_crash`` window on :data:`HOT_SHARD`.

    ``server_crash`` takes the process down and replays its journal on
    restart; ``shard_crash`` leaves it up but rejecting submissions.
    """
    if kind not in ("shard_crash", "server_crash"):
        raise ValueError(f"unknown crash kind {kind!r}")
    return SPEC_KINDS[kind](start_s, duration_s, shards=(HOT_SHARD,))


def federation_rig(
    seed: int,
    total: int = 24,
    concurrency: int = 8,
    shards: int = 3,
    hosts_per_shard: int = 4,
    orgs: int = 9,
    skew: float = 0.8,
    affinity_only: bool = False,
    spill_queue_depth: int = 4,
) -> FaultRig:
    """A skewed multi-tenant deploy storm over a journaled shard federation.

    ``skew`` is the fraction of deploys driven through orgs homed on
    :data:`HOT_SHARD`. With ``affinity_only=True`` the same storm runs
    through the classic org-pinned router — the baseline R-X8 compares
    against — and message faults arm as no-ops. Counters: steals, spills,
    reroutes, remote completions and the p95 deploy latency.
    """
    from repro.cloud.federation import FederatedCloud
    from repro.cloud.tenancy import Organization
    from repro.controlplane.bus import MessageBus
    from repro.sim.events import AllOf
    from repro.sim.kernel import Simulator
    from repro.sim.random import RandomStreams

    sim = Simulator()
    streams = RandomStreams(seed)
    bus = None
    if not affinity_only:
        bus = MessageBus(sim, rng=streams.stream("fed-bus"), direct_calls=False)
    # Max-inflight well below the worker concurrency: the hot shard's
    # dispatch queue visibly backs up under skew, which is what the
    # spillover threshold (and the hot_shard triage signature) keys on.
    cloud = FederatedCloud(
        sim, streams, shard_count=shards, hosts_per_shard=hosts_per_shard,
        config=_retrying_config(max(1, concurrency // 2)), bus=bus,
        affinity_only=affinity_only, journal=True, spill_queue_depth=spill_queue_depth,
    )
    org_objs = [
        Organization(f"org{i}", quota_vms=1_000_000, quota_storage_gb=1e9)
        for i in range(orgs)
    ]
    # Home every org up-front (all shards healthy and idle → pure
    # round-robin, identical in both router modes), then drive ``skew``
    # of the deploys through the orgs homed on the hot shard.
    for org in org_objs:
        cloud.director_for(org)
    hot = [org for i, org in enumerate(org_objs) if i % shards == 0]
    cold = [org for i, org in enumerate(org_objs) if i % shards != 0] or hot
    hot_tenths = int(round(skew * 10))
    pending: list[tuple[int, Organization]] = []
    for i in range(total):
        pool = hot if (i % 10) < hot_tenths else cold
        pending.append((i, pool[i % len(pool)]))

    def worker():
        while pending:
            index, org = pending.pop(0)
            try:
                yield from cloud.deploy(org, "small-linux-linked", 1, f"fed-{index}")
            except Exception:  # noqa: BLE001 — a failed deploy is counted below
                pass

    def workload() -> float:
        workers = [sim.spawn(worker(), name=f"fed-worker-{j}") for j in range(concurrency)]
        sim.run(until=AllOf(sim, workers))
        return sim.now

    def outcome() -> tuple[int, int, int]:
        completed = sum(
            1
            for director in cloud.directors
            for vapp in director.vapps
            if vapp.state.name == "RUNNING"
        )
        # A failed deploy either raised at the router or came back as a
        # FAILED/PARTIAL vApp; both are goodput losses.
        return completed, total - completed, cloud.plane.dead_letters()

    def counters() -> dict[str, float]:
        tallies: dict[str, float] = dict(cloud.federation_totals())
        tallies["p95_latency_s"] = cloud.deploy_latency_p(0.95)
        return tallies

    def per_shard() -> list[dict]:
        return [
            {
                "shard": shard.name,
                "tasks_completed": len(shard.tasks.succeeded()),
                **dataclasses.asdict(stats),
            }
            for shard, stats in zip(cloud.plane.shards, cloud.shard_stats)
        ]

    return FaultRig(
        sim=sim,
        streams=streams,
        targets=FaultTargets.for_federation(cloud),
        env=cloud,
        workload=workload,
        outcome=outcome,
        check=lambda: check_federation_exactly_once(cloud),
        counters=counters,
        per_shard=per_shard,
    )


# -- tenant deploy storms ---------------------------------------------------
#
# The open-loop provisioning storm of R-X3, R-F-alerts, the triage harness
# and the ``repro faults``/``metrics`` demos. Its costs, resilience
# postures, burn windows and alert rules are defined here once.

#: Failure detection compressed to the storm timescale: a 120 s host-call
#: timeout against 1500 s of faults would spend the run detecting.
STORM_COSTS = dataclasses.replace(DEFAULT_COSTS, host_call_timeout_s=20.0)

#: Director-level re-placement: the resilience the cloud layer adds.
REPLACE_POLICY = RetryPolicy(
    max_attempts=6, base_backoff_s=2.0, backoff_multiplier=2.0, max_backoff_s=30.0,
    jitter=0.5, retry_on=(TransientError, OperationError, TaskDeadlineExceeded),
)

#: Task-level in-place retries: only faults that are not pinned to the
#: placement decision (DB/shard transients). Host- and datastore-pinned
#: failures (agent faults, copy faults) must fail fast so the director
#: re-places them on different resources.
IN_PLACE_POLICY = RetryPolicy(
    max_attempts=3, base_backoff_s=1.0, backoff_multiplier=2.0, max_backoff_s=15.0,
    jitter=0.5, retry_on=(InjectedFault, ShardUnavailable),
)

#: The ``full`` posture's control plane: in-place retries under a retry
#: budget, task deadlines and per-agent circuit breakers (fail fast instead
#: of burning the call timeout).
FULL_CONFIG = ControlPlaneConfig(
    retry_policy=IN_PLACE_POLICY, retry_budget_ratio=0.2, task_deadline_s=240.0,
    breaker=BreakerPolicy(failure_threshold=3, cooldown_s=45.0, half_open_probes=1),
)

#: Resilience posture -> (control-plane config, director re-placement
#: policy, gateway shed watermark on the dispatch backlog).
POSTURES: dict[str, tuple[ControlPlaneConfig, RetryPolicy, float | None]] = {
    "none": (ControlPlaneConfig(), NO_RETRY, None),
    "retries": (ControlPlaneConfig(), REPLACE_POLICY, None),
    "full": (FULL_CONFIG, REPLACE_POLICY, 128.0),
}

#: Burn windows sized to the storm timescale: the fast pair catches a sharp
#: regression within ~1-2 roll-up windows, the slow pair holds the alert
#: through sustained degradation.
STORM_WINDOWS = (
    BurnWindow(short_s=60.0, long_s=180.0, threshold=2.0),
    BurnWindow(short_s=180.0, long_s=600.0, threshold=1.0),
)

TASK_SUCCESS = 'tasks_completed_total{outcome="success"}'
TASK_ERROR = 'tasks_completed_total{outcome="error"}'

#: The R-F-alerts burn-rate rules: deploy latency p99, task goodput, dead
#: letters and admission shedding.
ALERT_RULES: tuple[SloRule, ...] = (
    LatencyRule(
        name="deploy-latency-p99", objective=0.95, metric="director_deploy_latency_s",
        threshold_s=60.0, windows=STORM_WINDOWS,
    ),
    RatioRule(
        name="task-goodput", objective=0.98, bad_metric=TASK_ERROR,
        total_metrics=(TASK_SUCCESS, TASK_ERROR), windows=STORM_WINDOWS,
    ),
    RatioRule(
        name="dead-letter-rate", objective=0.995, bad_metric="tasks_dead_letter_total",
        total_metrics=(TASK_SUCCESS, TASK_ERROR), windows=STORM_WINDOWS,
    ),
    RatioRule(
        name="admission-shed-rate", objective=0.98, bad_metric="gateway_shed_total",
        total_metrics=("gateway_admitted_total", "gateway_shed_total"),
        windows=STORM_WINDOWS,
    ),
)


def deploy_rig(
    seed: int,
    posture: str = "full",
    duration_s: float = 1500.0,
    arrival_rate: float = 1.6,
    scrape_interval_s: float | None = None,
    rules: typing.Sequence[SloRule] = (),
    bus: bool = False,
    full_clone_every: int | None = None,
    triage: bool = False,
    sample_budget: int | None = None,
    recorder: bool = False,
) -> FaultRig:
    """An open-loop Poisson tenant deploy storm in one resilience posture.

    Deploys arrive at ``arrival_rate`` per second for ``duration_s`` and
    pass a rate-limited ``ApiGateway`` into a ``CloudDirector`` on a
    16-host server with :data:`STORM_COSTS`. ``posture`` names a row of
    :data:`POSTURES`: ``none`` (first failure is final), ``retries``
    (director re-placement) or ``full`` (re-placement, in-place retries,
    breakers, deadlines and admission shedding).

    ``scrape_interval_s`` turns live telemetry on, evaluating ``rules``
    after every scrape; ``triage``, ``recorder`` and ``sample_budget``
    (tail-sampled tracing) attach the incident stack to it. ``bus=True``
    routes every hop over a mediated message bus with the journal on, and
    ``full_clone_every=N`` makes every Nth deploy a full clone.

    The injector draws from the ``fault-injector`` stream; ``env`` is the
    ``StormRig``. Counters: ``offered`` and ``shed`` requests, deployed
    ``vms`` and ``timely_vms`` (deployed inside the arrival window),
    ``p99_latency_s``, ``re_places``, ``task_retries``, ``breaker_opens``
    and ``unaccounted`` tasks.
    """
    from repro.cloud.api import AdmissionShed, ApiGateway
    from repro.cloud.catalog import Catalog, CatalogItem
    from repro.cloud.director import CloudDirector, DeployRequest
    from repro.cloud.tenancy import Organization, User
    from repro.core.experiments import StormRig
    from repro.datacenter.templates import MEDIUM_LINUX
    from repro.sim.events import AllOf

    if duration_s <= 0 or arrival_rate <= 0:
        raise ValueError("duration and arrival rate must be positive")
    if posture not in POSTURES:
        raise ValueError(f"unknown posture {posture!r}; known: {sorted(POSTURES)}")
    config, replace_policy, shed_watermark = POSTURES[posture]
    storm = StormRig(
        seed=seed, hosts=16, datastores=4, host_memory_gb=512.0, costs=STORM_COSTS,
        config=config, traced=sample_budget is not None, sample_budget=sample_budget,
        telemetry=scrape_interval_s is not None,
        scrape_interval_s=5.0 if scrape_interval_s is None else scrape_interval_s,
        journal=bus, bus=bus, direct_calls=not bus, triage=triage, recorder=recorder,
    )
    sim, server, telemetry = storm.sim, storm.server, storm.telemetry
    catalog = Catalog("cloud-a")
    linked_item = catalog.add(CatalogItem(name="web", template_name=MEDIUM_LINUX.name))
    full_item = None
    if full_clone_every is not None:
        full_item = catalog.add(
            CatalogItem(name="db", template_name=MEDIUM_LINUX.name, linked=False)
        )
        # Modern-array copy bandwidth: full clones move 40 GB in ~10 s. Every
        # full clone reads from the template's datastore, so its links are
        # the copy bottleneck — keep their utilization well under one or
        # the deploy-latency rule burns with no fault injected.
        server.copy_engine.default_capacity_bps = 4 * 1024**3
    org = Organization("acme", quota_vms=100_000, quota_storage_gb=1e9)
    director = CloudDirector(
        server, storm.cluster, storm.library, catalog, retry_policy=replace_policy
    )
    gateway = ApiGateway(sim, requests_per_minute=600.0, burst=50.0, telemetry=telemetry)
    if shed_watermark is not None:
        gateway.enable_shedding(lambda: server.tasks.queue_depth, shed_watermark)
    session = gateway.login(User("tenant", org))
    for rule in rules:
        telemetry.add_rule(rule)

    requests: list = []
    shed = 0

    def one_request(index: int) -> typing.Generator:
        nonlocal shed
        try:
            yield from gateway.admit(session)
        except AdmissionShed:
            shed += 1
            return
        full = full_item is not None and index % full_clone_every == 0
        yield from director.deploy(
            DeployRequest(
                org=org, item=full_item if full else linked_item, vm_count=1,
                vapp_name=f"req{index}",
            )
        )

    def arrivals() -> typing.Generator:
        rng = storm.streams.stream("arrivals")
        index = 0
        while sim.now < duration_s:
            yield sim.timeout(rng.expovariate(arrival_rate))
            if sim.now >= duration_s:
                break
            requests.append(sim.spawn(one_request(index), name=f"req-{index}"))
            index += 1

    def workload() -> float:
        telemetry.start()
        sim.run(until=sim.spawn(arrivals(), name="arrivals"))
        if requests:
            sim.run(until=AllOf(sim, requests))
        return sim.now

    def counters() -> dict[str, float]:
        vapps = director.vapps
        return {
            "offered": len(requests),  # shed requests included
            "shed": shed,
            "vms": sum(len(vapp.vms) for vapp in vapps),
            # A VM delivered long after the backlog drains helped nobody.
            "timely_vms": sum(
                len(vapp.vms)
                for vapp in vapps
                if vapp.deployed_at is not None and vapp.deployed_at <= duration_s
            ),
            "p99_latency_s": director.deploy_latency_p(0.99),
            "re_places": int(director.metrics.counter("vm_retries").value),
            "task_retries": int(server.tasks.metrics.counter("retries").value),
            "breaker_opens": int(
                sum(
                    server.agent(host).metrics.counter("breaker_opens").value
                    for host in storm.hosts
                )
            ),
            "unaccounted": len(server.tasks.unaccounted()),
        }

    return FaultRig(
        sim=sim,
        streams=storm.streams,
        targets=FaultTargets.for_server(server),
        env=storm,
        workload=workload,
        outcome=lambda: _server_outcome(server),
        check=lambda: check_exactly_once(server),
        counters=counters,
        stop=telemetry.stop,
        injector_stream="fault-injector",
    )


# -- sweeps -----------------------------------------------------------------
#
# Each mode is a point-draw function yielding (rig, faults) pairs. Draws
# come from a stream separate from the workload seeds, so adding sweep
# points never perturbs the workloads; rigs are built lazily, one per point.

FaultPoint = tuple[FaultRig, list[FaultSpec]]


def crash_points(
    rng: random.Random, seeds: typing.Iterable[int], points_per_seed: int,
    total: int, concurrency: int,
) -> typing.Iterator[FaultPoint]:
    """Server crashes on direct storms, alternating linked and full clones.

    Crash timing is drawn uniformly — covering admission, dispatch wait,
    mid-attempt, and post-storm idle — scaled to the storm flavour (linked
    storms finish in tens of seconds, full-copy storms in hundreds).
    Downtime cycles through 5, 30 and 120 s.
    """
    downtimes = (5.0, 30.0, 120.0)
    for seed in seeds:
        for point in range(points_per_seed):
            linked = point % 2 == 0
            crash_at = rng.uniform(1.0, 45.0 if linked else 240.0)
            downtime = downtimes[point % len(downtimes)]
            yield (
                storm_rig(seed, total, concurrency, linked=linked),
                [ServerCrash(start_s=crash_at, duration_s=downtime, count=1)],
            )


def message_points(
    rng: random.Random, seeds: typing.Iterable[int], points_per_seed: int,
    total: int, concurrency: int,
) -> typing.Iterator[FaultPoint]:
    """One message fault per bus-mediated linked storm, cycling the kinds."""
    for seed in seeds:
        for point in range(points_per_seed):
            kind = MESSAGE_FAULT_KINDS[point % len(MESSAGE_FAULT_KINDS)]
            intensity = draw_intensity(rng, kind, MESSAGE_FAULT_RANGES)
            fault_at = rng.uniform(1.0, 40.0)
            duration = rng.uniform(10.0, 60.0)
            yield (
                storm_rig(seed, total, concurrency, bus=True),
                [message_fault(kind, intensity, fault_at, duration)],
            )


def federation_points(
    rng: random.Random, seeds: typing.Iterable[int], points_per_seed: int,
    total: int, concurrency: int,
) -> typing.Iterator[FaultPoint]:
    """Hot-shard crashes on the federation, alone or under a message fault.

    Each seed cycles through a shard-crash point, a server-crash point,
    and the five message-fault kinds overlaid on a mid-run crash of the
    hot shard — the full chaos posture re-run on the federation topics.
    """
    ranges = {"drop": (0.1, 0.5), "duplicate": (0.1, 0.4), "delay": (0.5, 4.0),
              "reorder": (0.2, 0.8)}
    labels = ("shard_crash", "server_crash") + MESSAGE_FAULT_KINDS
    for seed in seeds:
        for point in range(points_per_seed):
            label = labels[point % len(labels)]
            crash_at = rng.uniform(2.0, 30.0)
            downtime = rng.uniform(10.0, 60.0)
            crash_only = label.endswith("_crash")
            crash_kind = label if crash_only else ("shard_crash", "server_crash")[point % 2]
            intensity = 0.0 if crash_only else draw_intensity(rng, label, ranges)
            # The window is drawn at crash-only points too, so a fixed
            # sweep seed always replays the same points.
            fault_at = rng.uniform(1.0, 20.0)
            fault_duration = rng.uniform(10.0, 40.0)
            faults = [hot_shard_crash(crash_kind, crash_at, downtime)]
            if not crash_only:
                faults.append(message_fault(label, intensity, fault_at, fault_duration))
            yield federation_rig(seed, total=total, concurrency=concurrency), faults


# mode -> (point-draw function, default sweep seed)
SWEEPS: dict[str, tuple[typing.Callable[..., typing.Iterator[FaultPoint]], int]] = {
    "crash": (crash_points, 0xC4A5),
    "message": (message_points, 0xB005),
    "federation": (federation_points, 0xFEDE),
}


def fault_sweep(
    mode: str,
    seeds: typing.Iterable[int],
    points_per_seed: int = 10,
    rng: random.Random | None = None,
    total: int = 12,
    concurrency: int = 4,
) -> list[FaultPointResult]:
    """Run every point ``mode`` draws; returns each point's result.

    Defaults give the acceptance shape for 20 seeds: 200 fault points.
    """
    draw, sweep_seed = SWEEPS[mode]
    rng = rng or random.Random(sweep_seed)
    return [
        run_fault_point(rig, faults)
        for rig, faults in draw(rng, seeds, points_per_seed, total, concurrency)
    ]


def main(argv: typing.Sequence[str] | None = None) -> int:
    """CLI: ``python -m repro.faults.chaos --seeds 20 --points 10``."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="repro.faults.chaos",
        description="Sweep randomized faults; assert exactly-once semantics.",
    )
    parser.add_argument(
        "--mode",
        choices=tuple(SWEEPS),
        default="crash",
        help=(
            "crash: server-crash sweep; message: bus message-fault sweep; "
            "federation: cross-shard crash + message chaos on the federation topics"
        ),
    )
    parser.add_argument("--seeds", type=int, default=20, help="number of workload seeds")
    parser.add_argument("--points", type=int, default=10, help="fault points per seed")
    parser.add_argument("--total", type=int, default=12, help="clones per storm")
    parser.add_argument("--concurrency", type=int, default=4)
    parser.add_argument(
        "--sweep-seed", type=int, default=None, help="seed for fault-point draws"
    )
    args = parser.parse_args(argv)
    if min(args.seeds, args.points, args.total, args.concurrency) < 1:
        # An empty sweep would pass vacuously.
        print(
            "error: --seeds, --points, --total and --concurrency must be >= 1",
            file=sys.stderr,
        )
        return 2

    results = fault_sweep(
        args.mode,
        range(args.seeds),
        points_per_seed=args.points,
        rng=None if args.sweep_seed is None else random.Random(args.sweep_seed),
        total=args.total,
        concurrency=args.concurrency,
    )
    totals: collections.Counter = collections.Counter()
    for result in results:
        totals.update(result.counters)
    tallies = ", ".join(
        f"{value:.1f} {name}" if isinstance(value, float) else f"{value} {name}"
        for name, value in totals.items()
    )
    print(
        f"{args.mode} sweep: {len(results)} fault points across {args.seeds} seeds — "
        f"{sum(r.completed for r in results)} completed, "
        f"{sum(r.failed for r in results)} failed, "
        f"{sum(r.dead_letters for r in results)} dead-lettered; {tallies}"
    )
    bad = [result for result in results if not result.ok]
    for result in bad:
        print(f"FAIL seed={result.seed} faults={list(result.faults)}:")
        for violation in result.violations:
            print(f"  - {violation}")
    if bad:
        print(f"{len(bad)}/{len(results)} fault points violated exactly-once")
        return 1
    print("exactly-once invariant held at every fault point")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
