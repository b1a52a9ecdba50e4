"""Randomized triage chaos runs: inject a fault, score the verdicts.

The R-X6 rig is the R-F-alerts deploy storm
(:func:`repro.faults.chaos.deploy_rig`, ``full`` posture) grown three
ways: the bus is mediated (so message faults have a transport to hit),
the journal is on (so server crashes recover), and one deploy in eight is
a *full* clone (so copy faults have bytes to break — linked clones never
touch the copy engine). On top of the four R-F-alerts burn-rate rules it
adds :data:`TRIAGE_RULES`, four tripwires that make every detectable
fault kind alertable: host availability (a flap placement routes around
fails no task), a vm-retry-rate rule (catches submission refusals, which
complete no tasks and would otherwise starve the ratio rules), a bus
drop-rate rule, and a bus queue-wait latency rule.

``run_triage_point`` runs one seeded storm with one strong fault window
of a chosen kind (or none) through
:func:`~repro.faults.chaos.run_fault_point`, triage attached, and returns
the verdicts plus the resolved ground truth. ``triage_sweep`` cycles
kinds across seeds, optionally across worker processes, and pools the
scores — the R-X6 and R-X7 exhibits and the CI smoke job (``python -m
repro.triage.harness --seeds 10``) all sit on it.

``message_duplicate`` and ``message_reorder`` are deliberately outside
the sweep: the bus absorbs both by design (idempotency-key dedup,
commutative consumers), so they move no SLO and fire no alert — there is
nothing to triage. The rule catalogue still names them when asked
directly (``TriageEngine.triage_now``), which the unit tests cover.
"""

from __future__ import annotations

import dataclasses
import random
import typing

from repro.core.parallel import run_cells
from repro.faults import (
    AgentDegrade,
    CopyFlakiness,
    DatastoreOutage,
    DbSlowdown,
    FaultSchedule,
    GroundTruthManifest,
    HostFlap,
    MessageDelay,
    MessageDrop,
    ServerCrash,
    ShardCrash,
    TopicPartition,
)
from repro.faults.chaos import ALERT_RULES, STORM_WINDOWS, deploy_rig, run_fault_point
from repro.telemetry.slo import AvailabilityRule, LatencyRule, RatioRule
from repro.triage.engine import Verdict
from repro.triage.scoring import ScoreReport, TriageScorer

#: Fault kinds the sweep injects — every kind with an alertable SLO
#: signature. Ordered; seed i injects KINDS[i % len].
SWEEP_KINDS: tuple[str, ...] = (
    "host_flap",
    "agent_degrade",
    "db_slowdown",
    "datastore_outage",
    "copy_flakiness",
    "server_crash",
    "shard_crash",
    "message_drop",
    "message_delay",
    "topic_partition",
)

#: The quick subset (CI smoke): the kinds with the sharpest signatures.
QUICK_KINDS: tuple[str, ...] = (
    "host_flap",
    "agent_degrade",
    "db_slowdown",
    "datastore_outage",
    "server_crash",
    "message_drop",
)


#: The tripwires the triage rig adds to :data:`~repro.faults.chaos.ALERT_RULES`.
TRIAGE_RULES = (
    # A flap the placement engine routes around never fails a task —
    # fleet availability is the only signal that burns.
    AvailabilityRule(
        name="host-availability", objective=0.99, metric_prefix="host_up",
        windows=STORM_WINDOWS,
    ),
    # A shard/server crash refuses submissions: nothing completes, so the
    # completion-ratio rules starve. Retries-vs-deploys keeps burning.
    RatioRule(
        name="vm-retry-rate", objective=0.9, bad_metric="director_vm_retries_total",
        total_metrics=("director_vm_retries_total", "director_deploys_total"),
        windows=STORM_WINDOWS,
    ),
    RatioRule(
        name="bus-drop-rate", objective=0.98, bad_metric='bus_dropped_total{bus="bus"}',
        total_metrics=('bus_delivered_total{bus="bus"}', 'bus_dropped_total{bus="bus"}'),
        windows=STORM_WINDOWS,
    ),
    LatencyRule(
        name="bus-queue-wait", objective=0.95, metric='bus_queue_wait_s{bus="bus"}',
        threshold_s=2.0, windows=STORM_WINDOWS,
    ),
)


def kind_schedule(
    kind: str | None, rng: random.Random, duration_s: float
) -> FaultSchedule:
    """One strong mid-run window of ``kind`` (None -> no faults).

    Start and width are drawn from ``rng`` so every seed exercises a
    different alignment against the workload; intensities come from the
    strong end of each kind's range so the question the sweep answers is
    "does triage *name* it", not "is it detectable at all".
    """
    schedule = FaultSchedule()
    if kind is None:
        return schedule
    start = rng.uniform(0.3, 0.45) * duration_s
    width = rng.uniform(0.25, 0.35) * duration_s
    # Crash/partition windows stay short so recovery/heal (the
    # interesting part) happens inside the run.
    short = rng.uniform(0.1, 0.18) * duration_s
    if kind == "host_flap":
        schedule.add(HostFlap(start, width, count=2))
    elif kind == "agent_degrade":
        schedule.add(
            AgentDegrade(
                start,
                width,
                count=3,
                latency_factor=rng.uniform(10.0, 18.0),
                drop_rate=rng.uniform(0.5, 0.7),
            )
        )
    elif kind == "db_slowdown":
        # The storm runs the database at a few percent utilization, so
        # only a drastic slowdown pushes it into visible queueing.
        schedule.add(DbSlowdown(start, width, factor=rng.uniform(40.0, 60.0)))
    elif kind == "datastore_outage":
        schedule.add(DatastoreOutage(start, width, count=1))
    elif kind == "copy_flakiness":
        schedule.add(CopyFlakiness(start, width, fail_rate=rng.uniform(0.5, 0.75)))
    elif kind == "server_crash":
        schedule.add(ServerCrash(start, short, count=1))
    elif kind == "shard_crash":
        schedule.add(ShardCrash(start, width, count=1))
    elif kind == "message_drop":
        schedule.add(MessageDrop(start, width, rate=rng.uniform(0.3, 0.5)))
    elif kind == "message_delay":
        # The stall sits on the publish side, invisible to queue-wait —
        # it has to be big enough to drag end-to-end deploy latency.
        schedule.add(MessageDelay(start, width, delay_s=rng.uniform(6.0, 10.0)))
    elif kind == "topic_partition":
        schedule.add(TopicPartition(start, short))
    else:
        raise ValueError(f"no sweep schedule for fault kind {kind!r}")
    return schedule


@dataclasses.dataclass
class TriagePoint:
    """One seeded chaos run's outcome."""

    seed: int
    kind: str | None
    verdicts: list[Verdict]
    manifest: GroundTruthManifest
    report: ScoreReport
    alerts: int
    scrapes: int
    completed: int
    # Bundles stay empty unless recorder=True; retention is None unless the
    # run was traced (sample_budget set).
    bundles: list = dataclasses.field(default_factory=list)
    retention: dict | None = None

    @property
    def ok(self) -> bool:
        """Did the run behave? (No-fault runs must not name a culprit.)"""
        if self.kind is None:
            return all(not v.confident for v in self.verdicts)
        return True


def run_triage_point(
    seed: int,
    kind: str | None,
    duration_s: float = 600.0,
    arrival_rate: float = 1.2,
    triage: bool = True,
    grace_s: float = 240.0,
    sample_budget: int | None = None,
    recorder: bool = False,
) -> TriagePoint:
    """One storm + one fault window + triage, scored against ground truth.

    ``sample_budget`` traces the run through tail-based retention on that
    span budget; ``recorder=True`` attaches the incident flight recorder
    so every fired alert (and server crash) snapshots a bundle. Raises if
    the run breaks exactly-once.
    """
    rig = deploy_rig(
        seed, duration_s=duration_s, arrival_rate=arrival_rate, scrape_interval_s=5.0,
        rules=ALERT_RULES + TRIAGE_RULES, bus=True, full_clone_every=8, triage=triage,
        sample_budget=sample_budget, recorder=recorder,
    )
    storm = rig.env
    schedule = kind_schedule(kind, storm.streams.stream("triage-schedule"), duration_s)
    result = run_fault_point(rig, schedule.specs).require_ok()
    telemetry = storm.telemetry
    return TriagePoint(
        seed=seed,
        kind=kind,
        verdicts=list(storm.triage.verdicts),
        manifest=result.ground_truth,
        report=TriageScorer(grace_s=grace_s).score(storm.triage.verdicts, result.ground_truth),
        alerts=len([e for e in telemetry.monitor.timeline if e.kind == "fire"]),
        scrapes=telemetry.scraper.scrapes,
        completed=result.completed,
        bundles=list(storm.recorder.bundles),
        retention=(
            storm.tracer.retention_summary()
            if hasattr(storm.tracer, "retention_summary")
            else None
        ),
    )


def _triage_cell(cell: tuple[int, str | None, dict]) -> TriagePoint:
    seed, kind, options = cell
    return run_triage_point(seed, kind, **options)


def triage_sweep(
    seeds: typing.Iterable[int],
    kinds: typing.Sequence[str] = SWEEP_KINDS,
    parallel: int | None = None,
    **options: typing.Any,
) -> tuple[ScoreReport, list[TriagePoint]]:
    """Cycle ``kinds`` across ``seeds``; pool the per-run scores.

    ``options`` go to every :func:`run_triage_point`; ``parallel`` fans
    the runs across worker processes (see :func:`repro.core.parallel.run_cells`).
    """
    cells = [
        (seed, kinds[index % len(kinds)], options) for index, seed in enumerate(seeds)
    ]
    points = run_cells(_triage_cell, cells, parallel)
    return TriageScorer.merge(point.report for point in points), points


def main(argv: typing.Sequence[str] | None = None) -> int:
    """CI smoke: ``python -m repro.triage.harness --seeds 10`` with gates."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.triage.harness",
        description="Sweep single-fault chaos runs; score triage verdicts.",
    )
    parser.add_argument("--seeds", type=int, default=10, help="number of runs")
    parser.add_argument("--duration", type=float, default=600.0)
    parser.add_argument(
        "--quick", action="store_true", help="sweep only the sharpest fault kinds"
    )
    parser.add_argument("--min-top1", type=float, default=0.8)
    parser.add_argument("--min-recall", type=float, default=0.7)
    args = parser.parse_args(argv)

    kinds = QUICK_KINDS if args.quick else SWEEP_KINDS
    report, points = triage_sweep(range(args.seeds), kinds, duration_s=args.duration)
    for point in points:
        named = [v.named_kind for v in point.verdicts]
        print(
            f"seed {point.seed:>3}  injected={point.kind:<18} "
            f"alerts={point.alerts:>2}  verdicts={named}"
        )
    print()
    for line in report.render():
        print(line)
    ok = (
        report.top1_accuracy >= args.min_top1 and report.recall >= args.min_recall
    )
    print()
    print(
        f"gates: top-1 {report.top1_accuracy:.2f} >= {args.min_top1:g} and "
        f"recall {report.recall:.2f} >= {args.min_recall:g}: "
        f"{'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
