"""The four benchmark workloads, driven through the package's public API.

Each workload is a class with three steps:

- ``__init__(seed, size)`` builds the rig and generates the input (set-up);
- ``run()`` is the timed section: the simulation plus the workload's own
  result extraction. It starts, by the runner's clock, at the first
  ``Simulator.run`` call, so work a library entry point does before its
  first simulated event (building inventory, say) counts as set-up;
- ``summary()`` (untimed) returns a dict with ``ops`` (simulated operations
  completed), ``outputs`` (the simulated results the fingerprint digests),
  ``violations`` (broken invariants) and ``counts`` (per-layer counts read
  from the public stats objects).

``WORKLOADS`` gives each workload's full and small input size; the small
size is what the determinism check runs under two ``PYTHONHASHSEED``
values.
"""

from __future__ import annotations

import typing

INF = float("inf")

#: Every ``FULL_EVERY``-th clone of ``clone_storm`` is a full clone.
FULL_EVERY = 8


def _percentile(values: list[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def _task_outputs(server) -> dict[str, typing.Any]:
    tasks = server.tasks
    done = tasks.succeeded()
    latencies = [task.latency for task in done]
    return {
        "completed": len(done),
        "failed": len(tasks.failed()),
        "latency_p50_s": _percentile(latencies, 0.5),
        "latency_p99_s": _percentile(latencies, 0.99),
        "bytes_copied": server.copy_engine.total_bytes_written,
    }


def _controlplane_counts(server) -> dict[str, float]:
    tasks = server.tasks.tasks
    started = [task.queue_wait for task in tasks if task.started_at is not None]
    utilization = server.utilization_snapshot()
    copy_metrics = server.copy_engine.metrics
    return {
        "controlplane.tasks": len(tasks),
        "controlplane.failed_tasks": len(server.tasks.failed()),
        "controlplane.retries": sum(max(task.attempts, 1) - 1 for task in tasks),
        "controlplane.task_queue_wait_s": sum(started) / len(started) if started else 0.0,
        "controlplane.cpu_util": utilization["cpu"],
        "controlplane.db_util": utilization["db"],
        "controlplane.lock_wait_s": utilization["lock_wait_mean_s"],
        "storage.bytes_written_gb": server.copy_engine.total_bytes_written / 1024**3,
        # Every CopyEngine.copy call ends as a completed copy or a failure.
        "storage.copies": copy_metrics.counter("copies").value
        + copy_metrics.counter("failures").value,
    }


def _control_plane_share(tasks) -> float:
    """``plane_breakdown``'s control share, read from the task phases (a
    tail-sampled tracer keeps no spans for dropped trees)."""
    done = [task for task in tasks if task.finished_at is not None]
    wall = sum(task.latency for task in done)
    return sum(task.plane_seconds("control") for task in done) / wall if wall else 0.0


def _storm_violations(rig) -> list[str]:
    from repro.faults.chaos import check_exactly_once

    violations = []
    try:
        rig.server.tasks.assert_accounted()
    except AssertionError as exc:
        violations.append(f"assert_accounted: {exc}")
    violations.extend(check_exactly_once(rig.server))
    if rig.sim.peek() != INF:
        violations.append("simulation did not quiesce")
    return violations


class _Storm:
    """A closed loop of clones on a ``StormRig``: ``concurrency`` workers,
    each submitting its next clone when the previous one finishes."""

    def __init__(self, rig, total: int, concurrency: int) -> None:
        self.rig = rig
        queue = list(range(total - 1, -1, -1))

        def worker() -> typing.Generator:
            submit = rig.server.submit
            while queue:
                index = queue.pop()
                try:
                    yield submit(rig.clone_op(index, self.linked(index)))
                except Exception:
                    # A clone the simulated faults defeat is part of the
                    # simulated result, not a benchmark failure.
                    pass

        self.workers = [
            rig.sim.spawn(worker(), name=f"worker-{w}") for w in range(concurrency)
        ]

    def linked(self, index: int) -> bool:
        return True

    def simulate(self) -> None:
        from repro.sim.events import AllOf

        sim = self.rig.sim
        sim.run(until=AllOf(sim, self.workers))
        self.makespan = sim.now
        self.outputs = _task_outputs(self.rig.server)


class CloneStorm(_Storm):
    """Linked clones with every ``FULL_EVERY``-th one full; bus, telemetry
    and tracing off."""

    def __init__(self, seed: int, size: int) -> None:
        from repro.controlplane.costs import ControlPlaneConfig
        from repro.core.experiments import StormRig

        config = ControlPlaneConfig(max_inflight_tasks=96)
        rig = StormRig(seed=seed, hosts=16, datastores=4, host_memory_gb=4096.0, config=config)
        # Modern-array copy bandwidth, as in the triage rig: a full clone
        # moves its 40 GB in ~10 s, so the control plane still sets the pace.
        rig.server.copy_engine.default_capacity_bps = 4 * 1024**3
        super().__init__(rig, total=size, concurrency=128)

    def linked(self, index: int) -> bool:
        return index % FULL_EVERY != 0

    def run(self) -> None:
        self.simulate()
        self.rig.sim.run()

    def summary(self) -> dict[str, typing.Any]:
        counts = _controlplane_counts(self.rig.server)
        counts["operations.control_plane_share"] = _control_plane_share(
            self.rig.server.tasks.tasks
        )
        return {
            "ops": counts["controlplane.tasks"],
            "outputs": dict(self.outputs, makespan_s=self.makespan),
            "violations": _storm_violations(self.rig),
            "counts": counts,
        }


class ObservedBusStorm(_Storm):
    """Linked clones only, every hop on the bus, with the journal, a retry
    policy, live telemetry and burn-rate rules, triage, a tail-sampled
    tracer, the flight recorder, and message drop/duplicate windows."""

    SPAN_BUDGET = 4096

    def __init__(self, seed: int, size: int) -> None:
        from repro.controlplane.costs import ControlPlaneConfig
        from repro.controlplane.resilience import RetryPolicy
        from repro.core.experiments import StormRig
        from repro.faults import (
            FaultInjector,
            FaultSchedule,
            FaultTargets,
            MessageDrop,
            MessageDuplicate,
        )
        from repro.telemetry.slo import BurnWindow, LatencyRule, RatioRule

        config = ControlPlaneConfig(
            max_inflight_tasks=48,
            retry_policy=RetryPolicy(
                max_attempts=4, base_backoff_s=1.0, max_backoff_s=10.0, jitter=0.5
            ),
        )
        rig = StormRig(
            seed=seed,
            hosts=16,
            datastores=4,
            host_memory_gb=4096.0,
            config=config,
            traced=True,
            sample_budget=self.SPAN_BUDGET,
            telemetry=True,
            scrape_interval_s=5.0,
            journal=True,
            bus=True,
            direct_calls=False,
            triage=True,
            recorder=True,
        )
        telemetry = rig.telemetry
        windows = (
            BurnWindow(short_s=60.0, long_s=180.0, threshold=2.0),
            BurnWindow(short_s=180.0, long_s=600.0, threshold=1.0),
        )
        success = 'tasks_completed_total{outcome="success"}'
        error = 'tasks_completed_total{outcome="error"}'
        telemetry.add_rule(
            RatioRule(
                name="task-goodput",
                objective=0.98,
                bad_metric=error,
                total_metrics=(success, error),
                windows=windows,
            )
        )
        telemetry.add_rule(
            RatioRule(
                name="bus-drop-rate",
                objective=0.98,
                bad_metric='bus_dropped_total{bus="bus"}',
                total_metrics=('bus_delivered_total{bus="bus"}', 'bus_dropped_total{bus="bus"}'),
                windows=windows,
            )
        )
        telemetry.add_rule(
            LatencyRule(
                name="bus-queue-wait",
                objective=0.95,
                metric='bus_queue_wait_s{bus="bus"}',
                threshold_s=2.0,
                windows=windows,
            )
        )
        # One drop window and one duplicate window, each a fixed share of
        # the storm's simulated length (~0.35 s per clone) so every size
        # still alerts.
        span = size * 0.35
        self.schedule = FaultSchedule(
            [
                MessageDrop(0.2 * span, 0.25 * span, rate=0.3),
                MessageDuplicate(0.55 * span, 0.25 * span, rate=0.4),
            ]
        )
        self.injector = FaultInjector(
            rig.sim,
            FaultTargets.for_server(rig.server),
            self.schedule,
            rng=rig.streams.stream("bench-injector"),
        ).start()
        telemetry.start()
        super().__init__(rig, total=size, concurrency=64)

    def run(self) -> None:
        self.simulate()
        rig = self.rig
        rig.sim.run(until=rig.sim.spawn(self.injector.drain(), name="fault-drain"))
        rig.telemetry.stop()
        rig.sim.run()

    def summary(self) -> dict[str, typing.Any]:
        rig = self.rig
        stats = rig.bus.topic_stats().values()
        published = sum(s.published for s in stats)
        delivered = sum(s.delivered for s in stats)
        deduped = sum(s.deduped for s in stats)
        waits = sum(s.waits for s in stats)
        retention = rig.tracer.retention_summary()
        alerts = len([e for e in rig.telemetry.monitor.timeline if e.kind == "fire"])
        counts = _controlplane_counts(rig.server)
        counts.update(
            {
                "operations.control_plane_share": _control_plane_share(rig.server.tasks.tasks),
                "bus.published": published,
                "bus.delivered": delivered,
                "bus.redelivered": sum(s.redelivered for s in stats),
                "bus.deduped": deduped,
                "bus.dropped": sum(s.dropped for s in stats),
                "bus.useful_ratio": (delivered - deduped) / delivered if delivered else 0.0,
                "bus.queue_wait_s": sum(s.total_wait_s for s in stats) / waits if waits else 0.0,
                "telemetry.scrapes": rig.telemetry.scraper.scrapes,
                "telemetry.alerts_fired": alerts,
                "telemetry.bundles": len(rig.recorder.bundles),
                "tracing.spans_offered": retention["offered_spans"],
                "tracing.spans_retained": retention["retained_spans"],
                "tracing.retained_ratio": (
                    retention["retained_spans"] / retention["offered_spans"]
                    if retention["offered_spans"]
                    else 0.0
                ),
                "triage.verdicts": len(rig.triage.verdicts),
                "faults.windows": len(self.injector.ground_truth().windows),
            }
        )
        outputs = dict(
            self.outputs,
            makespan_s=self.makespan,
            bus_published=published,
            bus_delivered=delivered,
            bus_redelivered=counts["bus.redelivered"],
            bus_deduped=deduped,
            bus_dropped=counts["bus.dropped"],
            spans_offered=retention["offered_spans"],
            spans_retained=retention["retained_spans"],
            bundles=counts["telemetry.bundles"],
            alerts=alerts,
        )
        violations = _storm_violations(rig)
        if alerts < 1:
            violations.append("no alert fired during the message-fault windows")
        return {
            "ops": counts["controlplane.tasks"],
            "outputs": outputs,
            "violations": violations,
            "counts": counts,
        }


class CloudDay:
    """One simulated day of CLOUD_A plus the characterization analyses."""

    def __init__(self, seed: int, size: float) -> None:
        from repro.core.scenario import Scenario
        from repro.workloads.profiles import CLOUD_A

        self.scenario = Scenario(profile=CLOUD_A, duration_s=size, seed=seed)

    def run(self) -> None:
        result = self.scenario.run()
        self.mix = result.operation_mix()
        self.latency = result.latency_by_type()
        self.planes = result.plane_breakdown()
        self.result = result

    def summary(self) -> dict[str, typing.Any]:
        server = self.result.server
        sim = server.sim
        outputs = dict(
            _task_outputs(server),
            makespan_s=sim.now,
            operations=len(self.result.trace),
            mix={op: round(share, 12) for op, share in sorted(self.mix.items())},
            control_share=self.planes["control"],
        )
        violations = []
        try:
            server.tasks.assert_accounted()
        except AssertionError as exc:
            violations.append(f"assert_accounted: {exc}")
        if sim.peek() != INF:
            violations.append("simulation did not quiesce")
        counts = _controlplane_counts(server)
        counts["operations.control_plane_share"] = self.planes["control"]
        counts["cloud.deploys"] = self.result.driver.director.metrics.counter(
            "deploy_requests"
        ).value
        return {
            "ops": counts["controlplane.tasks"],
            "outputs": outputs,
            "violations": violations,
            "counts": counts,
        }


class FleetTimers:
    """One ``hyperscale_sweep`` cell: ``size`` VMs, one shard, default queue."""

    def __init__(self, seed: int, size: int) -> None:
        self.seed = seed
        self.size = size

    def run(self) -> None:
        from repro.core.experiments import hyperscale_sweep

        (self.point,) = hyperscale_sweep(
            seed=self.seed, fleets=(self.size,), shard_counts=(1,)
        )

    def summary(self) -> dict[str, typing.Any]:
        point = self.point
        outputs = {
            key: point[key]
            for key in ("vms", "deploys", "expiries", "peak_pending", "makespan_s", "events")
        }
        violations = []
        if not point["deploys"] == point["expiries"] == point["vms"] == self.size:
            violations.append(
                f"deploys {point['deploys']} / expiries {point['expiries']} / "
                f"vms {point['vms']} differ"
            )
        return {
            "ops": point["deploys"] + point["expiries"],
            "outputs": outputs,
            "violations": violations,
            "counts": {
                "sim.peak_pending": point["peak_pending"],
                "workloads.arrivals": point["deploys"],
            },
        }


#: name -> (class, full size, small size). Sizes are clones for the storms,
#: simulated seconds for ``cloud_day`` and VMs for ``fleet_timers``.
WORKLOADS: dict[str, tuple[type, typing.Any, typing.Any]] = {
    "clone_storm": (CloneStorm, 6000, 600),
    "cloud_day": (CloudDay, 86_400.0, 7_200.0),
    "observed_bus_storm": (ObservedBusStorm, 2400, 300),
    "fleet_timers": (FleetTimers, 300_000, 30_000),
}
