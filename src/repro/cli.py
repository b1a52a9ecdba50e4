"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``profile <name>`` — run the characterization harness over a cloud
  profile and print the report (optionally dump the trace).
- ``experiment <id>`` — run one registered exhibit (R-T1 … R-F10).
- ``storm`` — a one-off clone storm with explicit knobs.
- ``faults`` — a deploy storm under the standard fault schedule, with
  the fault timeline and resilience outcome printed.
- ``recover`` — a clone storm with a management-server crash at a chosen
  point: journal replay, reconciliation verdicts, MTTR, and the
  exactly-once invariant check printed.
- ``trace`` — a traced clone storm: per-phase attribution and the
  critical path printed, span tree exportable as Chrome trace JSON
  (load in ``chrome://tracing`` / Perfetto) or JSONL; ``--sample``
  runs the tracer through tail-based retention on a span budget.
- ``metrics`` — a telemetry-instrumented deploy storm: live-scraped
  roll-ups rendered as a ``top``-style dashboard (utilization, queue
  depths, breaker states, retry budget, burn-rate alerts), with
  Prometheus-text and JSONL exports.
- ``triage`` — a single-fault chaos run with the incident-triage engine
  attached: every SLO alert burst becomes a ranked root-cause verdict
  with its evidence chain, graded against the injected ground truth.
- ``incident`` — the same chaos run with the flight recorder on: every
  fired alert (and server crash) snapshots a self-contained incident
  bundle (windows, exemplars, retained traces, bus stats, verdict),
  rendered and optionally exported as JSON.
- ``federation`` — a skewed multi-tenant deploy storm over bus-federated
  shards: locality-aware routing, work-stealing, spillover, optional
  mid-run shard crash with failover, per-shard steal/spill/reroute
  counters, and the cross-shard exactly-once verdict printed.
- ``hyperscale`` — the R-F-hyperscale fleet cells (up to 1M VMs on raw
  kernel timers) with live events/s and peak-RSS columns.
- ``list`` — enumerate profiles and experiments.
"""

from __future__ import annotations

import argparse
import sys
import typing

from repro.core.experiments import EXPERIMENTS, StormRig, run_experiment
from repro.core.profiler import CloudManagementProfiler
from repro.traces.io import write_csv, write_jsonl
from repro.workloads.profiles import ALL_PROFILES

PROFILES = {profile.name: profile for profile in ALL_PROFILES}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Management-control-plane workload characterization "
        "(IISWC 2013 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    profile_cmd = sub.add_parser("profile", help="characterize one cloud profile")
    profile_cmd.add_argument("name", choices=sorted(PROFILES))
    profile_cmd.add_argument("--hours", type=float, default=4.0)
    profile_cmd.add_argument("--seed", type=int, default=0)
    profile_cmd.add_argument(
        "--trace-out", help="write the operation trace (.csv or .jsonl)"
    )

    experiment_cmd = sub.add_parser("experiment", help="run one exhibit")
    experiment_cmd.add_argument("exp_id", choices=sorted(EXPERIMENTS))
    experiment_cmd.add_argument("--seed", type=int, default=0)
    experiment_cmd.add_argument("--quick", action="store_true")
    experiment_cmd.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help="fan independent sweep cells across N worker processes "
        "(0 = one per CPU; default: REPRO_BENCH_PARALLEL or serial)",
    )

    storm_cmd = sub.add_parser("storm", help="one clone storm")
    storm_cmd.add_argument("--clones", type=int, default=64)
    storm_cmd.add_argument("--concurrency", type=int, default=16)
    storm_cmd.add_argument("--full", action="store_true", help="full clones (default linked)")
    storm_cmd.add_argument("--hosts", type=int, default=16)
    storm_cmd.add_argument("--seed", type=int, default=0)

    sweep_cmd = sub.add_parser("sweep", help="sensitivity sweep of one constant")
    sweep_cmd.add_argument(
        "parameter", help="costs.<field> or config.<field>, e.g. config.cpu_workers"
    )
    sweep_cmd.add_argument(
        "values", help="comma-separated values, e.g. 2,4,8,16"
    )
    sweep_cmd.add_argument("--seed", type=int, default=0)
    sweep_cmd.add_argument("--clones", type=int, default=64)
    sweep_cmd.add_argument("--full", action="store_true")

    faults_cmd = sub.add_parser(
        "faults", help="deploy storm under the standard fault schedule"
    )
    faults_cmd.add_argument("--duration", type=float, default=600.0,
                            help="arrival window in sim seconds")
    faults_cmd.add_argument("--rate", type=float, default=1.0,
                            help="deploy arrivals per second")
    faults_cmd.add_argument("--scale", type=float, default=1.0,
                            help="fault blast-radius multiplier")
    faults_cmd.add_argument("--seed", type=int, default=0)
    faults_cmd.add_argument("--no-resilience", action="store_true",
                            help="disable retries/breakers/deadlines")

    recover_cmd = sub.add_parser(
        "recover", help="clone storm with a server crash: journal replay demo"
    )
    recover_cmd.add_argument("--clones", type=int, default=12)
    recover_cmd.add_argument("--concurrency", type=int, default=4)
    recover_cmd.add_argument("--full", action="store_true",
                             help="full clones (default linked)")
    recover_cmd.add_argument("--crash-at", type=float, default=10.0,
                             help="crash time in sim seconds")
    recover_cmd.add_argument("--downtime", type=float, default=30.0,
                             help="server downtime in sim seconds")
    recover_cmd.add_argument("--seed", type=int, default=0)

    trace_cmd = sub.add_parser(
        "trace", help="traced clone storm: phase attribution + critical path"
    )
    trace_cmd.add_argument("--clones", type=int, default=16)
    trace_cmd.add_argument("--concurrency", type=int, default=8)
    trace_cmd.add_argument("--full", action="store_true", help="full clones (default linked)")
    trace_cmd.add_argument("--seed", type=int, default=0)
    trace_cmd.add_argument(
        "--chrome-out", help="write spans as Chrome trace-event JSON"
    )
    trace_cmd.add_argument("--jsonl-out", help="write spans as JSONL")
    trace_cmd.add_argument(
        "--sample", type=int, default=None, metavar="BUDGET",
        help="tail-sample traces under a retained-span budget "
        "(default: retain everything)",
    )

    metrics_cmd = sub.add_parser(
        "metrics",
        help="telemetry-instrumented fault storm: top-style dashboard + exports",
    )
    metrics_cmd.add_argument("--duration", type=float, default=600.0,
                             help="arrival window in sim seconds")
    metrics_cmd.add_argument("--rate", type=float, default=1.6,
                             help="deploy arrivals per second")
    metrics_cmd.add_argument("--scale", type=float, default=1.5,
                             help="fault blast-radius multiplier")
    metrics_cmd.add_argument("--seed", type=int, default=0)
    metrics_cmd.add_argument("--interval", type=float, default=5.0,
                             help="scrape cadence in sim seconds")
    metrics_cmd.add_argument("--no-faults", action="store_true",
                             help="run the storm without the fault schedule")
    metrics_cmd.add_argument("--triage", action="store_true",
                             help="attach the incident-triage engine and append "
                             "its verdict drill-down to the dashboard")
    metrics_cmd.add_argument(
        "--prom-out", help="write Prometheus text exposition of the final state"
    )
    metrics_cmd.add_argument("--rollups-out", help="write roll-up windows as JSONL")
    metrics_cmd.add_argument("--alerts-out", help="write the alert timeline as JSONL")

    bus_cmd = sub.add_parser(
        "bus",
        help="bus-mediated deploy storm: topic stats, queue depths, redeliveries",
    )
    bus_cmd.add_argument("--deploys", type=int, default=16,
                         help="catalog deploys to push through the bus")
    bus_cmd.add_argument("--concurrency", type=int, default=4)
    bus_cmd.add_argument("--seed", type=int, default=0)
    bus_cmd.add_argument(
        "--fault",
        choices=("none", "drop", "duplicate", "delay", "reorder", "partition"),
        default="none",
        help="message fault to arm mid-storm (default none)",
    )
    bus_cmd.add_argument("--rate", type=float, default=0.3,
                         help="fault rate (drop/duplicate/reorder) or delay seconds")
    bus_cmd.add_argument("--fault-at", type=float, default=5.0,
                         help="fault window start in sim seconds")
    bus_cmd.add_argument("--fault-duration", type=float, default=60.0,
                         help="fault window length in sim seconds")

    federation_cmd = sub.add_parser(
        "federation",
        help="skewed tenant storm over bus-federated shards: stealing, "
        "spillover, shard-crash failover",
    )
    federation_cmd.add_argument("--shards", type=int, default=3)
    federation_cmd.add_argument("--deploys", type=int, default=48,
                                help="tenant deploys to drive through the federation")
    federation_cmd.add_argument("--concurrency", type=int, default=10)
    federation_cmd.add_argument("--orgs", type=int, default=9)
    federation_cmd.add_argument("--skew", type=float, default=0.8,
                                help="fraction of deploys aimed at shard 0's orgs")
    federation_cmd.add_argument("--seed", type=int, default=0)
    federation_cmd.add_argument("--affinity-only", action="store_true",
                                help="classic org-pinned routing (no bus federation)")
    federation_cmd.add_argument("--crash-at", type=float, default=None,
                                help="crash the hot shard at this sim second")
    federation_cmd.add_argument("--downtime", type=float, default=40.0,
                                help="crash window length in sim seconds")
    federation_cmd.add_argument(
        "--crash-kind", choices=("shard_crash", "server_crash"),
        default="shard_crash",
        help="shard_crash rejects submissions; server_crash kills and replays",
    )
    federation_cmd.add_argument(
        "--fault",
        choices=("none", "drop", "duplicate", "delay", "reorder", "partition"),
        default="none",
        help="message fault to arm on the federation topics (default none)",
    )
    federation_cmd.add_argument("--rate", type=float, default=0.3,
                                help="fault rate (drop/duplicate/reorder) or delay seconds")

    triage_cmd = sub.add_parser(
        "triage",
        help="single-fault chaos run: SLO alerts -> ranked root-cause verdicts",
    )
    triage_cmd.add_argument(
        "--kind",
        default="host_flap",
        help="fault kind to inject (see repro.triage.harness.SWEEP_KINDS), "
        "or 'none' for a fault-free run",
    )
    triage_cmd.add_argument("--seed", type=int, default=0)
    triage_cmd.add_argument("--duration", type=float, default=600.0,
                            help="arrival window in sim seconds")
    triage_cmd.add_argument("--no-evidence", action="store_true",
                            help="omit per-hypothesis evidence chains")

    incident_cmd = sub.add_parser(
        "incident",
        help="chaos run with the flight recorder: alert-triggered bundles",
    )
    incident_cmd.add_argument(
        "--kind",
        default="host_flap",
        help="fault kind to inject (see repro.triage.harness.SWEEP_KINDS), "
        "or 'none' for a fault-free run",
    )
    incident_cmd.add_argument("--seed", type=int, default=0)
    incident_cmd.add_argument("--duration", type=float, default=600.0,
                              help="arrival window in sim seconds")
    incident_cmd.add_argument(
        "--sample", type=int, default=2048, metavar="BUDGET",
        help="tail-sampling span budget for the retained traces",
    )
    incident_cmd.add_argument(
        "--bundle-out",
        help="write the bundles as JSON (one file, or JSONL with .jsonl)",
    )

    hyperscale_cmd = sub.add_parser(
        "hyperscale",
        help="fleet cells to 1M VMs on the hyperscale kernel, with live "
        "throughput and RSS columns",
    )
    hyperscale_cmd.add_argument("--seed", type=int, default=0)
    hyperscale_cmd.add_argument(
        "--quick", action="store_true", help="small fleets (CI smoke sizes)"
    )
    hyperscale_cmd.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="fan shard cells across N worker processes (0 = one per CPU)",
    )
    hyperscale_cmd.add_argument(
        "--fleet", type=int, action="append", metavar="VMS",
        help="fleet size; repeatable (default: 100k and 1M, or 2k/10k with --quick)",
    )
    hyperscale_cmd.add_argument(
        "--shards", type=int, action="append", metavar="N",
        help="shard count; repeatable (default: 1,4,8 or 1,2 with --quick)",
    )

    sub.add_parser("list", help="list profiles and experiments")
    return parser


def cmd_profile(args: argparse.Namespace) -> int:
    profiler = CloudManagementProfiler(PROFILES[args.name], seed=args.seed)
    result = profiler.run(duration=args.hours * 3600.0)
    print(result.report())
    if args.trace_out:
        if args.trace_out.endswith(".jsonl"):
            count = write_jsonl(result.trace, args.trace_out)
        elif args.trace_out.endswith(".csv"):
            count = write_csv(result.trace, args.trace_out)
        else:
            print("error: --trace-out must end in .csv or .jsonl", file=sys.stderr)
            return 2
        print(f"\nwrote {count} trace records to {args.trace_out}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    try:
        result = run_experiment(
            args.exp_id, seed=args.seed, quick=args.quick, parallel=args.parallel
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(result.render())
    return 0


def cmd_storm(args: argparse.Namespace) -> int:
    rig = StormRig(seed=args.seed, hosts=args.hosts, datastores=4)
    outcome = rig.closed_loop_storm(
        args.clones, args.concurrency, linked=not args.full
    )
    mode = "full" if args.full else "linked"
    print(f"{mode} storm: {outcome['completed']} clones in {outcome['makespan_s']:.0f}s")
    print(f"  throughput: {outcome['throughput_per_hour']:.0f} clones/hour")
    print(f"  p50 latency: {outcome['latency_p50']:.1f}s")
    print(f"  data written: {outcome['bytes_written_gb']:.0f} GB")
    print(f"  bottleneck: {rig.server.bottleneck()}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.sensitivity import sweep

    def parse(token: str):
        token = token.strip()
        for caster in (int, float):
            try:
                return caster(token)
            except ValueError:
                continue
        if token in ("true", "True"):
            return True
        if token in ("false", "False"):
            return False
        return token

    values = [parse(token) for token in args.values.split(",") if token.strip()]
    try:
        result = sweep(
            args.parameter,
            values,
            seed=args.seed,
            total=args.clones,
            linked=not args.full,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(result.render())
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import SPEC_KINDS, standard_fault_schedule
    from repro.faults.chaos import deploy_rig, run_fault_point

    try:
        schedule = standard_fault_schedule(args.duration, scale=args.scale)
        rig = deploy_rig(
            args.seed, "none" if args.no_resilience else "full",
            duration_s=args.duration, arrival_rate=args.rate,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    result = run_fault_point(rig, schedule.specs)
    counters = result.counters

    print(f"fault kinds: {', '.join(sorted(SPEC_KINDS))}")
    print("\nfault timeline:")
    for line in result.timeline:
        print(f"  {line}")
    print(f"\noffered:       {counters['offered']} deploys over {args.duration:.0f}s")
    print(f"succeeded:     {counters['vms']} ({counters['timely_vms']} inside the window)")
    print(f"p99 latency:   {counters['p99_latency_s']:.1f}s")
    print(f"re-places:     {counters['re_places']}")
    print(f"task retries:  {counters['task_retries']}")
    print(f"shed:          {counters['shed']}")
    print(f"dead letters:  {result.dead_letters}")
    print(f"unaccounted:   {counters['unaccounted']}")
    return _report_exactly_once(result)


def _report_exactly_once(result) -> int:
    """Print the exactly-once verdict of a fault point; 1 if it broke."""
    if result.violations:
        print("exactly-once VIOLATED:")
        for violation in result.violations:
            print(f"  - {violation}")
        return 1
    print("exactly-once invariant: held")
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    from repro.faults import ServerCrash
    from repro.faults.chaos import run_fault_point, storm_rig

    if args.clones < 1 or args.concurrency < 1:
        print("error: --clones and --concurrency must be >= 1", file=sys.stderr)
        return 2
    if args.crash_at <= 0 or args.downtime <= 0:
        print("error: --crash-at and --downtime must be positive", file=sys.stderr)
        return 2
    rig = storm_rig(args.seed, args.clones, args.concurrency, linked=not args.full)
    result = run_fault_point(
        rig, [ServerCrash(start_s=args.crash_at, duration_s=args.downtime, count=1)]
    )
    server = rig.env.server

    mode = "full" if args.full else "linked"
    journal = server.journal
    print(
        f"{mode} storm: {result.completed} clones in "
        f"{result.makespan_s:.0f}s with a crash at {args.crash_at:.0f}s "
        f"({args.downtime:.0f}s down)"
    )
    print(
        f"journal: {len(journal)} records "
        f"({len(journal.terminal_counts())} terminal, "
        f"{len(journal.open_task_ids())} open)"
    )
    for index, epoch in enumerate(server.recovery.crashes):
        print(
            f"crash #{index + 1} at {epoch.crashed_at:.1f}s: "
            f"{epoch.interrupted} in-flight interrupted, {epoch.parked} parked; "
            f"restart at {epoch.restarted_at:.1f}s replayed "
            f"{epoch.replayed_records} records in {epoch.replay_s:.2f}s — "
            f"adopted {epoch.adopted}, rolled back {epoch.rolled_back}, "
            f"reissued {epoch.reissued}, requeued {epoch.requeued}"
        )
    print(f"dead letters:  {result.dead_letters}")
    print(f"unaccounted:   {len(server.tasks.unaccounted())}")
    return _report_exactly_once(result)


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.analysis.spans import (
        critical_path,
        critical_path_phases,
        phase_attribution,
        queueing_service_split,
    )
    from repro.tracing import write_chrome_trace, write_spans_jsonl

    if args.sample is not None and args.sample < 1:
        print("error: --sample must be >= 1", file=sys.stderr)
        return 2
    rig = StormRig(seed=args.seed, traced=True, sample_budget=args.sample)
    outcome = rig.closed_loop_storm(
        args.clones, args.concurrency, linked=not args.full
    )
    mode = "full" if args.full else "linked"
    tasks = rig.server.tasks.succeeded()
    roots = [task.span for task in tasks]
    print(
        f"{mode} storm: {outcome['completed']} clones traced, "
        f"{len(rig.tracer.spans)} spans, "
        f"{len(rig.tracer.open_spans())} left open"
    )
    if args.sample is not None:
        summary = rig.tracer.retention_summary()
        kept = ", ".join(
            f"{summary[f'kept_{cls}']} {cls}"
            for cls in ("error", "retry", "slow", "normal")
        )
        print(
            f"tail sampling: {summary['retained_spans']} of "
            f"{summary['offered_spans']} spans retained "
            f"(budget {summary['span_budget']}), "
            f"{summary['retained_trees']} trees kept ({kept}), "
            f"{summary['dropped']} dropped, {summary['evicted']} evicted"
        )
        # Dropped trees lost their child index — only retained trees can
        # be attributed or walked for a critical path below.
        retained = {tree.trace_id for tree in rig.tracer.retained_trees()}
        tasks = [
            task for task in tasks if task.span.context.trace_id in retained
        ]
        roots = [task.span for task in tasks]
        if not roots:
            print("(no retained traces to attribute)")
            return 0
        print(f"(attribution below covers the {len(roots)} retained traces)")

    totals: dict[str, float] = {}
    for root in roots:
        for phase, seconds in phase_attribution(root).items():
            totals[phase] = totals.get(phase, 0.0) + seconds
    attributed = sum(totals.values())
    print("\nper-phase attribution (mean s/clone):")
    for phase, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        share = seconds / attributed * 100.0 if attributed else 0.0
        print(f"  {phase:<10} {seconds / len(roots):8.2f}  ({share:.0f}%)")

    waits = {"queueing": 0.0, "service": 0.0}
    for root in roots:
        for bucket, seconds in queueing_service_split(root).items():
            waits[bucket] += seconds
    print(
        f"\nqueueing vs service: {waits['queueing'] / len(roots):.2f}s waiting, "
        f"{waits['service'] / len(roots):.2f}s served (per clone)"
    )

    slowest = max(tasks, key=lambda task: task.span.duration)
    segments = critical_path(slowest.span)
    print(f"\ncritical path of the slowest clone ({slowest.span.duration:.2f}s):")
    for phase, seconds in sorted(critical_path_phases(segments).items(), key=lambda kv: -kv[1]):
        print(f"  {phase:<10} {seconds:8.2f}s")

    spans = rig.tracer.spans
    if args.chrome_out:
        count = write_chrome_trace(spans, args.chrome_out)
        print(f"\nwrote {count} trace events to {args.chrome_out} (chrome://tracing)")
    if args.jsonl_out:
        count = write_spans_jsonl(spans, args.jsonl_out)
        print(f"wrote {count} spans to {args.jsonl_out}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro.faults import standard_fault_schedule
    from repro.faults.chaos import ALERT_RULES, deploy_rig, run_fault_point
    from repro.telemetry import (
        render_dashboard,
        write_alerts,
        write_prometheus,
        write_rollups,
    )

    try:
        faults = ()
        if not args.no_faults:
            faults = standard_fault_schedule(args.duration, scale=args.scale).specs
        rig = deploy_rig(
            args.seed, duration_s=args.duration, arrival_rate=args.rate,
            scrape_interval_s=args.interval, rules=ALERT_RULES, triage=args.triage,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    result = run_fault_point(rig, faults)
    telemetry = rig.env.telemetry

    print(render_dashboard(telemetry, triage=rig.env.triage))
    if args.prom_out:
        path = write_prometheus(telemetry, args.prom_out)
        print(f"wrote Prometheus exposition to {path}")
    if args.rollups_out:
        path = write_rollups(telemetry, args.rollups_out)
        print(f"wrote roll-up windows to {path}")
    if args.alerts_out:
        path = write_alerts(telemetry, args.alerts_out)
        print(f"wrote alert timeline to {path}")
    return _report_exactly_once(result)


def cmd_bus(args: argparse.Namespace) -> int:
    from repro.cloud.api import ApiGateway
    from repro.cloud.catalog import Catalog, CatalogItem
    from repro.cloud.director import CloudDirector, DeployRequest
    from repro.cloud.tenancy import Organization, User
    from repro.controlplane.costs import ControlPlaneConfig
    from repro.controlplane.resilience import RetryPolicy
    from repro.datacenter.templates import MEDIUM_LINUX
    from repro.faults import FaultInjector, FaultSchedule, FaultTargets, message_fault
    from repro.faults.chaos import check_exactly_once
    from repro.sim.events import AllOf

    if args.deploys < 1 or args.concurrency < 1:
        print("error: --deploys and --concurrency must be >= 1", file=sys.stderr)
        return 2
    faults = []
    if args.fault != "none":
        try:
            faults.append(
                message_fault(args.fault, args.rate, args.fault_at, args.fault_duration)
            )
        except ValueError as error_:
            print(f"error: {error_}", file=sys.stderr)
            return 2
    config = ControlPlaneConfig(
        retry_policy=RetryPolicy(
            max_attempts=4, base_backoff_s=1.0, max_backoff_s=10.0, jitter=0.5
        ),
    )
    rig = StormRig(
        seed=args.seed, hosts=8, datastores=2, config=config,
        journal=True, bus=True, direct_calls=False,
    )
    catalog = Catalog("demo")
    item = catalog.add(CatalogItem(name="web", template_name=MEDIUM_LINUX.name))
    org = Organization("demo-org", quota_vms=1_000_000, quota_storage_gb=1e9)
    # The director sees the mediated bus on the server and subscribes its
    # deploy topic; the gateway publishes to it through submit_deploy.
    director = CloudDirector(rig.server, rig.cluster, rig.library, catalog)
    gateway = ApiGateway(rig.sim, requests_per_minute=6000.0, burst=100.0)
    session = gateway.login(User("tenant", org))

    injector = None
    if faults:
        injector = FaultInjector(
            rig.sim,
            FaultTargets.for_server(rig.server),
            FaultSchedule(faults),
            rng=rig.streams.stream("bus-injector"),
        ).start()

    queue = list(range(args.deploys))

    def worker() -> typing.Generator:
        while queue:
            index = queue.pop(0)
            try:
                yield from gateway.submit_deploy(
                    session,
                    director,
                    DeployRequest(
                        org=org, item=item, vm_count=1, vapp_name=f"req{index}"
                    ),
                )
            except Exception:
                pass

    workers = [
        rig.sim.spawn(worker(), name=f"bus-worker-{w}")
        for w in range(min(args.concurrency, args.deploys))
    ]
    start = rig.sim.now
    rig.sim.run(until=AllOf(rig.sim, workers))
    if injector is not None:
        rig.sim.run(until=rig.sim.spawn(injector.drain(), name="bus-drain"))
    rig.sim.run()
    makespan = rig.sim.now - start

    bus = rig.bus
    print(
        f"bus {bus.name!r}: {args.deploys} deploys through "
        f"{len(bus.topic_stats())} topics in {makespan:.1f}s"
        + (f" (fault: {args.fault})" if args.fault != "none" else "")
    )
    print(
        f"\n{'topic':<28} {'pub':>5} {'dlvr':>5} {'redlv':>5} {'dedup':>5} "
        f"{'drop':>5} {'shed':>5} {'dead':>5} {'depth':>5} {'wait(ms)':>9}"
    )
    depths = bus.depths()
    for name, stats in bus.topic_stats().items():
        wait_ms = stats.mean_wait_s * 1000.0
        print(
            f"{name:<28} {stats.published:>5} {stats.delivered:>5} "
            f"{stats.redelivered:>5} {stats.deduped:>5} {stats.dropped:>5} "
            f"{stats.shed:>5} {stats.dead_lettered:>5} {depths[name]:>5} "
            f"{wait_ms:>9.1f}"
        )
    totals = {
        name: sum(getattr(stats, name) for stats in bus.topic_stats().values())
        for name in ("published", "delivered", "redelivered", "deduped", "dropped",
                     "shed", "dead_lettered")
    }
    print(
        f"\ntotals: {totals['published']} published, "
        f"{totals['delivered']} delivered, {totals['redelivered']} redelivered, "
        f"{totals['deduped']} deduped, {totals['dropped']} dropped in transit, "
        f"{totals['shed']} shed, {totals['dead_lettered']} dead-lettered"
    )
    deployed = sum(len(vapp.vms) for vapp in director.vapps)
    tasks = rig.server.tasks
    print(f"deployed VMs:  {deployed}")
    print(f"dead letters:  {len(tasks.dead_letters)}")
    violations = check_exactly_once(rig.server)
    if violations:
        print("exactly-once VIOLATED:")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    print("exactly-once invariant: held")
    return 0


def cmd_triage(args: argparse.Namespace) -> int:
    from repro.triage.harness import SWEEP_KINDS, run_triage_point

    kind = None if args.kind == "none" else args.kind
    if kind is not None and kind not in SWEEP_KINDS:
        print(
            f"error: unknown fault kind {args.kind!r} "
            f"(choose from: none, {', '.join(SWEEP_KINDS)})",
            file=sys.stderr,
        )
        return 2
    if args.duration <= 0:
        print("error: duration must be positive", file=sys.stderr)
        return 2

    point = run_triage_point(args.seed, kind, duration_s=args.duration)
    print(
        f"chaos run: seed {point.seed}, injected "
        f"{point.kind or 'nothing'}, {point.completed} tasks completed, "
        f"{point.scrapes} scrapes, {point.alerts} alert firings"
    )
    print("\nground truth:")
    for line in point.manifest.describe() or ["  (no faults injected)"]:
        print(f"  {line}")
    print("\nverdicts:")
    if not point.verdicts:
        print("  (no alerts fired, no verdicts)")
    for verdict in point.verdicts:
        for line in verdict.render(evidence=not args.no_evidence):
            print(f"  {line}")
    print()
    for line in point.report.render():
        print(line)
    return 0


def cmd_incident(args: argparse.Namespace) -> int:
    from repro.telemetry import write_incident_bundle, write_incident_bundles
    from repro.triage.harness import SWEEP_KINDS, run_triage_point

    kind = None if args.kind == "none" else args.kind
    if kind is not None and kind not in SWEEP_KINDS:
        print(
            f"error: unknown fault kind {args.kind!r} "
            f"(choose from: none, {', '.join(SWEEP_KINDS)})",
            file=sys.stderr,
        )
        return 2
    if args.duration <= 0:
        print("error: duration must be positive", file=sys.stderr)
        return 2
    if args.sample < 1:
        print("error: --sample must be >= 1", file=sys.stderr)
        return 2

    point = run_triage_point(
        args.seed, kind, duration_s=args.duration, sample_budget=args.sample,
        recorder=True,
    )
    print(
        f"chaos run: seed {point.seed}, injected "
        f"{point.kind or 'nothing'}, {point.completed} tasks completed, "
        f"{point.alerts} alert firings, {len(point.bundles)} incident "
        f"bundles"
    )
    print("\nground truth:")
    for line in point.manifest.describe() or ["  (no faults injected)"]:
        print(f"  {line}")
    retention = point.retention or {}
    if retention:
        print(
            f"\ntail sampling: {retention['retained_spans']} of "
            f"{retention['offered_spans']} spans retained "
            f"(budget {retention['span_budget']}, "
            f"{retention['retained_trees']} trees)"
        )
    print("\nincident bundles:")
    if not point.bundles:
        print("  (no alerts fired, nothing recorded)")
    for bundle in point.bundles:
        for line in bundle.render():
            print(f"  {line}")
        print()
    if args.bundle_out:
        if args.bundle_out.endswith(".jsonl"):
            path = write_incident_bundles(point.bundles, args.bundle_out)
        elif len(point.bundles) == 1:
            path = write_incident_bundle(point.bundles[0], args.bundle_out)
        else:
            path = write_incident_bundles(point.bundles, args.bundle_out)
        print(f"wrote {len(point.bundles)} bundles to {path}")
    return 0


def cmd_hyperscale(args: argparse.Namespace) -> int:
    from repro.core.experiments import hyperscale_sweep

    points = hyperscale_sweep(
        seed=args.seed,
        quick=args.quick,
        parallel=args.parallel,
        fleets=args.fleet,
        shard_counts=args.shards,
    )
    print("hyperscale fleet cells:")
    print(
        f"{'VMs':>9} {'shards':>6} {'deploys':>9} {'expiries':>9} "
        f"{'peak pending':>12} {'drain days':>10} {'events/s':>10} "
        f"{'wall s':>7} {'RSS MB':>7}"
    )
    for point in points:
        print(
            f"{point['vms']:>9,} {point['shards']:>6} {point['deploys']:>9,} "
            f"{point['expiries']:>9,} {point['peak_pending']:>12,} "
            f"{point['makespan_s'] / 86_400.0:>10.1f} "
            f"{point['events_per_s']:>10,.0f} {point['wall_s']:>7.1f} "
            f"{point['rss_mb']:>7,.0f}"
        )
    biggest = max(points, key=lambda point: point["vms"])
    print(
        f"\nlargest cell: {biggest['vms']:,} VMs held "
        f"{biggest['peak_pending']:,} pending timers at peak "
        f"({biggest['events_per_s']:,.0f} events/s, "
        f"{biggest['rss_mb']:,.0f} MB peak RSS)"
    )
    return 0


def cmd_list(_args: argparse.Namespace) -> int:
    print("profiles:")
    for profile in ALL_PROFILES:
        print(f"  {profile.name:<12} {profile.description}")
    print("\nexperiments:")
    for exp_id in sorted(EXPERIMENTS):
        doc = (EXPERIMENTS[exp_id].__doc__ or "").strip().splitlines()[0]
        print(f"  {exp_id:<7} {doc}")
    return 0


def cmd_federation(args: argparse.Namespace) -> int:
    from repro.faults import message_fault
    from repro.faults.chaos import federation_rig, hot_shard_crash, run_fault_point

    if args.deploys < 1 or args.concurrency < 1 or args.shards < 1 or args.orgs < 1:
        print("error: counts must be >= 1", file=sys.stderr)
        return 2
    if not 0.0 <= args.skew <= 1.0:
        print("error: --skew must be in [0, 1]", file=sys.stderr)
        return 2
    faults = []
    try:
        if args.crash_at is not None:
            faults.append(hot_shard_crash(args.crash_kind, args.crash_at, args.downtime))
        if args.fault != "none":
            faults.append(message_fault(args.fault, args.rate, 5.0, 30.0))
    except ValueError as error_:
        print(f"error: {error_}", file=sys.stderr)
        return 2
    rig = federation_rig(
        args.seed,
        total=args.deploys,
        concurrency=args.concurrency,
        shards=args.shards,
        orgs=args.orgs,
        skew=args.skew,
        affinity_only=args.affinity_only,
    )
    result = run_fault_point(rig, faults)
    counters = result.counters
    mode = "affinity-only" if args.affinity_only else "bus-routed"
    print(
        f"federation storm ({mode}): {args.deploys} deploys, "
        f"{args.shards} shards, skew={args.skew:.0%}, seed={args.seed}"
    )
    if args.crash_at is not None:
        print(
            f"  fault: {args.crash_kind} on the hot shard at "
            f"{args.crash_at:.1f}s for {args.downtime:.0f}s"
        )
    if args.fault != "none":
        print(f"  message fault: {args.fault} (intensity {args.rate:g})")
    print()
    header = (
        f"  {'shard':<8} {'tasks_ok':>8} {'steals':>7} {'spills':>7} "
        f"{'reroutes':>8} {'remote':>7}"
    )
    print(header)
    print("  " + "-" * (len(header) - 2))
    for row in result.per_shard:
        print(
            f"  {row['shard']:<8} {row['tasks_completed']:>8} {row['steals']:>7} "
            f"{row['spills']:>7} {row['reroutes']:>8} {row['remote_completions']:>7}"
        )
    print()
    print(
        f"  deploys: {result.completed}/{args.deploys} completed "
        f"({result.failed} failed, {result.dead_letters} dead-lettered)"
    )
    print(
        f"  goodput: {result.goodput_per_hour:.0f}/h  "
        f"p95 deploy latency: {counters['p95_latency_s']:.1f}s  "
        f"makespan: {result.makespan_s:.1f}s"
    )
    if result.violations:
        print("\ncross-shard exactly-once VIOLATED:")
        for violation in result.violations:
            print(f"  - {violation}")
        return 1
    print("  cross-shard exactly-once: held")
    return 0


_HANDLERS: dict[str, typing.Callable[[argparse.Namespace], int]] = {
    "profile": cmd_profile,
    "experiment": cmd_experiment,
    "storm": cmd_storm,
    "sweep": cmd_sweep,
    "faults": cmd_faults,
    "recover": cmd_recover,
    "trace": cmd_trace,
    "metrics": cmd_metrics,
    "bus": cmd_bus,
    "federation": cmd_federation,
    "triage": cmd_triage,
    "incident": cmd_incident,
    "hyperscale": cmd_hyperscale,
    "list": cmd_list,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
