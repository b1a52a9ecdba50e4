"""The experiment registry: one entry per reconstructed table/figure.

Every exhibit has one shape. ``experiment_*(seed, quick, parallel)``
builds a list of picklable cells from ``seed`` and ``quick`` (shrunken
sizes for CI; benches run the full sizes), runs them through
:func:`repro.core.parallel.run_cells` (serially in-process, or across
``parallel`` worker processes; results come back in cell order), and
renders the outcomes as the rows and series of an
:class:`ExperimentResult`. Runs of the same shape share one module-level
cell: the closed-loop storm, the open-loop storm, the profile scenario
and the fault point. ``benchmarks/`` wraps these; EXPERIMENTS.md records
the expected shapes.
"""

from __future__ import annotations

import dataclasses
import functools
import typing

# The control plane, inventory and telemetry load where a cell builds a
# server (``StormRig.__init__`` and the cells that build their own), so a
# run that never builds one, such as a hyperscale cell, never loads them.
from repro.controlplane.costs import ControlPlaneConfig, ControlPlaneCosts, DEFAULT_COSTS
from repro.sim.events import AllOf, Call
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams, exponentials
from repro.workloads.arrivals import MMPPBurst, Poisson
from repro.workloads.lifetimes import CLASSIC_DC_LIFETIME, CLOUD_A_LIFETIME

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.operations.provisioning import CloneVM


@dataclasses.dataclass
class ExperimentResult:
    """Rows (table) and/or series (figure) for one exhibit."""

    exp_id: str
    title: str
    headers: list[str]
    rows: list[list[typing.Any]]
    series: dict[str, list[tuple[float, float]]] = dataclasses.field(default_factory=dict)
    notes: str = ""

    def render(self) -> str:
        from repro.analysis.report import render_series, render_table

        parts = [render_table(self.headers, self.rows, title=f"{self.exp_id}: {self.title}")]
        for label, pairs in self.series.items():
            parts.append("")
            parts.append(render_series(label, pairs))
        if self.notes:
            parts.append("")
            parts.append(f"note: {self.notes}")
        return "\n".join(parts)


# --------------------------------------------------------------------------
# Shared rig: a managed cluster for storm experiments.
# --------------------------------------------------------------------------


class StormRig:
    """A cluster + template ready for provisioning storms."""

    def __init__(
        self,
        seed: int = 0,
        hosts: int = 16,
        datastores: int = 4,
        host_memory_gb: float = 128.0,
        costs: ControlPlaneCosts = DEFAULT_COSTS,
        config: ControlPlaneConfig | None = None,
        traced: bool = False,
        telemetry: bool = False,
        scrape_interval_s: float = 5.0,
        journal: bool = False,
        bus: bool = False,
        direct_calls: bool = False,
        triage: bool = False,
        sample_budget: int | None = None,
        recorder: bool = False,
    ) -> None:
        from repro.controlplane.server import ManagementServer
        from repro.controlplane.task_manager import NULL_JOURNAL
        from repro.datacenter.entities import Cluster, Datacenter, Datastore, Host, Network
        from repro.datacenter.templates import MEDIUM_LINUX, TemplateLibrary
        from repro.operations.provisioning import CloneVM
        from repro.telemetry.metrics import NULL_RECORDER, NULL_TELEMETRY, Telemetry
        from repro.tracing import NULL_TRACER, Tracer
        from repro.triage.engine import NULL_TRIAGE

        # A bus always mediates; no bus means direct calls. The keyword is
        # kept only because perfbench's ObservedBusStorm still passes False.
        if direct_calls:
            raise ValueError("direct calls are spelled bus=False")
        # Triage and the recorder read live telemetry; without it they
        # would silently be the null engine and the null recorder.
        if (triage or recorder) and not telemetry:
            raise ValueError("triage and recorder need telemetry=True")
        self.sim = Simulator()
        self.streams = RandomStreams(seed)
        # sample_budget switches traced runs onto tail-based retention:
        # full span trees inside a fixed budget instead of keep-everything.
        if traced and sample_budget is not None:
            from repro.tracing.sampling import RetentionPolicy, SampledTracer

            self.tracer = SampledTracer(
                self.sim, RetentionPolicy(span_budget=sample_budget)
            )
        else:
            self.tracer = Tracer(self.sim) if traced else NULL_TRACER
        self.telemetry = (
            Telemetry(self.sim, scrape_interval_s=scrape_interval_s)
            if telemetry
            else NULL_TELEMETRY
        )
        self.journal = NULL_JOURNAL
        if journal:
            from repro.controlplane.recovery import TaskJournal

            self.journal = TaskJournal()
        # bus=True routes the control-plane hops through bus topics with
        # at-least-once delivery.
        self.bus = None
        if bus:
            from repro.controlplane.bus import MessageBus

            self.bus = MessageBus(
                self.sim, rng=self.streams.stream("bus"), telemetry=self.telemetry
            )
        self.server = ManagementServer(
            self.sim,
            self.streams.spawn("server"),
            costs=costs,
            config=config,
            tracer=self.tracer,
            telemetry=self.telemetry,
            journal=self.journal,
            bus=self.bus,
        )
        # triage=True subscribes the incident-triage engine to the SLO
        # monitor's fire hook; it reads roll-ups/spans only, so schedules
        # stay byte-identical with it attached.
        self.triage = NULL_TRIAGE
        if triage:
            from repro.triage.engine import TriageEngine

            self.triage = TriageEngine(self.telemetry, tracer=self.tracer).attach()
        # recorder=True attaches the incident flight recorder *after*
        # triage (listener order is call order, and a bundle wants the
        # verdict that triggered it). Read-only like triage, so schedules
        # stay byte-identical with it attached.
        self.recorder = NULL_RECORDER
        if recorder:
            from repro.telemetry.recorder import FlightRecorder

            self.recorder = FlightRecorder(
                self.telemetry,
                tracer=self.tracer,
                bus=self.bus,
                triage=self.triage if triage else None,
            ).attach(server=self.server)
        inventory = self.server.inventory
        self.datacenter = inventory.create(Datacenter, name="dc")
        self.cluster = inventory.create(Cluster, name="cluster")
        self.datacenter.add_cluster(self.cluster)
        self.network = inventory.create(Network, name="net")
        self.datastores = [
            inventory.create(Datastore, name=f"lun{i:02d}", capacity_gb=100_000.0)
            for i in range(datastores)
        ]
        self.hosts = []
        for index in range(hosts):
            host = inventory.create(
                Host, name=f"esx{index:02d}", memory_gb=host_memory_gb
            )
            self.cluster.add_host(host)
            for datastore in self.datastores:
                host.mount(datastore)
            self.server.adopt_host(host)
            self.hosts.append(host)
        self.library = TemplateLibrary(inventory)
        self.template = self.library.publish(MEDIUM_LINUX, self.datastores[0])
        # Bound here so that clone_op, called per clone, runs no import.
        self._clone_vm = CloneVM

    def clone_op(self, index: int, linked: bool) -> CloneVM:
        return self._clone_vm(
            self.template,
            f"storm-{index}",
            self.hosts[index % len(self.hosts)],
            self.datastores[index % len(self.datastores)],
            linked=linked,
        )

    def closed_loop_storm(
        self, total: int, concurrency: int, linked: bool
    ) -> dict[str, float]:
        """Keep ``concurrency`` clones in flight until ``total`` complete.

        Returns makespan, throughput (clones/hour), and latency stats.
        """
        if total < 1 or concurrency < 1:
            raise ValueError("total and concurrency must be >= 1")
        start = self.sim.now
        queue = list(range(total))

        def worker() -> typing.Generator:
            while queue:
                index = queue.pop(0)
                process = self.server.submit(self.clone_op(index, linked))
                try:
                    yield process
                except Exception:
                    pass

        workers = [
            self.sim.spawn(worker(), name=f"worker-{w}")
            for w in range(min(concurrency, total))
        ]
        # Wait for the workers specifically (not quiescence): background
        # processes like stats collectors may outlive the storm.
        self.sim.run(until=AllOf(self.sim, workers))
        # Hard accounting invariant: every submitted clone reached a
        # terminal state — a stranded task fails the exhibit loudly
        # instead of silently shrinking goodput.
        self.server.tasks.assert_accounted()
        makespan = self.sim.now - start
        done = self.server.tasks.succeeded()
        latencies = sorted(task.latency for task in done)
        return {
            "makespan_s": makespan,
            "completed": len(done),
            "throughput_per_hour": len(done) / makespan * 3600.0 if makespan > 0 else 0.0,
            "latency_p50": latencies[len(latencies) // 2] if latencies else 0.0,
            "bytes_written_gb": self.server.copy_engine.total_bytes_written / 1024**3,
        }


# --------------------------------------------------------------------------
# Shared cells: one per run shape.
# --------------------------------------------------------------------------


def storm_cell(
    cell: tuple[int, int, int, ControlPlaneCosts, ControlPlaneConfig | None, int, int, bool]
) -> dict[str, typing.Any]:
    """A closed-loop clone storm on its own rig, plus the rig's bottleneck.

    The cell is ``(seed, hosts, datastores, costs, config, total,
    concurrency, linked)``. R-F3, R-F4, R-T3, ``sensitivity.sweep`` and
    ``repro storm`` are this cell over different factors.
    """
    seed, hosts, datastores, costs, config, total, concurrency, linked = cell
    rig = StormRig(seed=seed, hosts=hosts, datastores=datastores, costs=costs, config=config)
    outcome: dict[str, typing.Any] = rig.closed_loop_storm(total, concurrency, linked)
    outcome["bottleneck"] = rig.server.bottleneck()
    return outcome


def _open_loop_cell(
    cell: tuple[int, typing.Any, float, ControlPlaneConfig | None]
) -> dict[str, typing.Any]:
    """An open-loop linked-clone storm: arrivals until ``duration``, then drain.

    The cell is ``(seed, arrivals, duration, config)``; the arrival
    process's sampler owns the rig's ``"arrivals"`` stream. R-F5 and R-F7.
    """
    seed, arrivals, duration, config = cell
    rig = StormRig(seed=seed, hosts=16, datastores=4, config=config)
    next_arrival = arrivals.sampler(rig.streams.stream("arrivals"))

    def open_loop() -> typing.Generator:
        index = 0
        while True:
            next_time = next_arrival(rig.sim.now)
            if next_time >= duration:
                return
            yield rig.sim.timeout(next_time - rig.sim.now)
            rig.server.submit(rig.clone_op(index, linked=True))
            index += 1

    rig.sim.spawn(open_loop(), name="open-loop")
    rig.sim.run(until=duration)
    rig.sim.run()  # drain
    tasks = rig.server.tasks
    snapshot = rig.server.utilization_snapshot()
    done = tasks.succeeded()
    latencies = sorted(task.latency for task in done) or [0.0]
    return {
        "done": len(done),
        "cpu": snapshot["cpu"],
        "db": snapshot["db"],
        "hostd_mean": snapshot["hostd_mean"],
        "p50": latencies[len(latencies) // 2],
        "bottleneck": rig.server.bottleneck(),
        "depth_series": tasks.queue_depth_series(),
        "mean_depth": tasks.depth.time_average(),
    }


def _scenario_cell(cell: tuple[typing.Any, bool, float, int]) -> list:
    """One profile run, ``(profile, quick, duration, seed)``: its trace.

    ``quick`` shrinks the profile's inventory. R-T2, R-F1 and R-F2.
    """
    from repro.core.scenario import Scenario

    profile, quick, duration, seed = cell
    if quick:
        profile = dataclasses.replace(
            profile,
            hosts=max(4, profile.hosts // 4),
            datastores=max(2, profile.datastores // 2),
            initial_vms_per_host=2,
        )
    return Scenario(profile, duration, seed).run().trace


def _fault_point_cell(cell: tuple[typing.Callable, dict, list]):
    """One fault point, ``(rig builder, its options, faults)``.

    Raises unless the exactly-once invariant held. R-X3, R-X4, R-X5 and
    R-X8 over the rig builders of :mod:`repro.faults.chaos`.
    """
    from repro.faults.chaos import run_fault_point

    rig, options, faults = cell
    return run_fault_point(rig(**options), faults).require_ok()


# --------------------------------------------------------------------------
# R-T1 — setup characteristics.
# --------------------------------------------------------------------------


def experiment_t1_setups(seed: int, quick: bool, parallel: int | None) -> ExperimentResult:
    """R-T1: the two clouds' (and baseline's) infrastructure shapes.

    Profile constants only: nothing is simulated, so there are no cells.
    """
    from repro.workloads.profiles import CLASSIC_DC, CLOUD_A, CLOUD_B

    rows = []
    for profile in (CLOUD_A, CLOUD_B, CLASSIC_DC):
        rows.append(
            [
                profile.name,
                profile.hosts,
                profile.datastores,
                f"{profile.datastore_capacity_gb:.0f}",
                profile.orgs,
                profile.hosts * profile.initial_vms_per_host,
                f"{profile.linked_clone_fraction:.0%}",
                f"{profile.mix.provisioning_fraction():.0%}",
            ]
        )
    return ExperimentResult(
        exp_id="R-T1",
        title="Cloud setup characteristics",
        headers=[
            "setup",
            "hosts",
            "datastores",
            "ds GB",
            "orgs",
            "initial VMs",
            "linked %",
            "provisioning mix %",
        ],
        rows=rows,
        notes="Profile parameters; see workloads/profiles.py for rationale.",
    )


# --------------------------------------------------------------------------
# R-T2 — operation mix comparison.
# --------------------------------------------------------------------------


def experiment_t2_opmix(seed: int, quick: bool, parallel: int | None) -> ExperimentResult:
    """R-T2: management-operation mix, clouds vs classic datacenter."""
    from repro.analysis.mix import mix_comparison
    from repro.core.parallel import run_cells
    from repro.workloads.profiles import CLASSIC_DC, CLOUD_A, CLOUD_B

    duration = 2 * 3600.0 if quick else 12 * 3600.0
    profiles = (CLOUD_A, CLOUD_B, CLASSIC_DC)
    outcomes = run_cells(
        _scenario_cell,
        [(profile, quick, duration, seed) for profile in profiles],
        parallel,
    )
    traces = {profile.name: trace for profile, trace in zip(profiles, outcomes)}
    headers, rows = mix_comparison(traces)
    provisioning = {
        label: sum(
            record.latency >= 0 and record.op_type in
            ("deploy", "destroy", "clone_full", "clone_linked")
            for record in trace
        ) / max(1, len(trace))
        for label, trace in traces.items()
    }
    notes = "provisioning share: " + ", ".join(
        f"{label}={share:.0%}" for label, share in provisioning.items()
    )
    return ExperimentResult(
        exp_id="R-T2",
        title="Operation mix by setup",
        headers=headers,
        rows=rows,
        notes=notes,
    )


# --------------------------------------------------------------------------
# R-F1 — diurnal arrival pattern.
# --------------------------------------------------------------------------


def experiment_f1_arrivals(seed: int, quick: bool, parallel: int | None) -> ExperimentResult:
    """R-F1: operation arrival rate over one day (Cloud A, diurnal)."""
    from repro.analysis.timeseries import arrival_rate_series, peak_to_trough
    from repro.core.parallel import run_cells
    from repro.workloads.profiles import CLOUD_A

    duration = 6 * 3600.0 if quick else 24 * 3600.0
    (trace,) = run_cells(_scenario_cell, [(CLOUD_A, quick, duration, seed)], parallel)
    series = arrival_rate_series(trace, bin_s=1800.0)
    ratio = peak_to_trough(series)
    return ExperimentResult(
        exp_id="R-F1",
        title="Arrival rate over the day (Cloud A)",
        headers=["metric", "value"],
        rows=[
            ["operations", len(trace)],
            ["peak/trough rate ratio", f"{ratio:.1f}"],
            ["mean ops/s", f"{len(trace) / duration:.4f}"],
        ],
        series={"arrival rate (ops/s)": series},
        notes="Expect a pronounced diurnal envelope (ratio >> 1).",
    )


# --------------------------------------------------------------------------
# R-F2 — latency CDFs per operation type.
# --------------------------------------------------------------------------


def experiment_f2_latency_cdf(seed: int, quick: bool, parallel: int | None) -> ExperimentResult:
    """R-F2: per-operation latency distributions under cloud load."""
    from repro.analysis.latency import latency_by_type, latency_cdf
    from repro.core.parallel import run_cells
    from repro.workloads.profiles import CLOUD_B

    duration = 2 * 3600.0 if quick else 8 * 3600.0
    (trace,) = run_cells(_scenario_cell, [(CLOUD_B, quick, duration, seed)], parallel)
    stats = latency_by_type(trace)
    rows = [
        [op, s["count"], f"{s['p50']:.2f}", f"{s['p95']:.2f}", f"{s['p99']:.2f}"]
        for op, s in stats.items()
        if s["count"] >= 3
    ]
    series = {}
    for op in ("deploy", "power_on", "rescan_datastore"):
        cdf = latency_cdf([record for record in trace if record.op_type == op], points=50)
        if cdf:
            series[f"{op} latency CDF"] = cdf
    return ExperimentResult(
        exp_id="R-F2",
        title="Operation latency distributions (Cloud B)",
        headers=["operation", "n", "p50 (s)", "p95 (s)", "p99 (s)"],
        rows=rows,
        series=series,
        notes="Heavy-tailed bodies; reconfiguration ops sit far right.",
    )


# --------------------------------------------------------------------------
# R-F3 — provisioning throughput vs concurrency, full vs linked.
# --------------------------------------------------------------------------


def experiment_f3_throughput(seed: int, quick: bool, parallel: int | None) -> ExperimentResult:
    """R-F3 (headline): clone throughput vs offered concurrency."""
    from repro.core.parallel import run_cells

    concurrencies = (1, 4, 16, 64) if quick else (1, 2, 4, 8, 16, 32, 64, 128)
    total = 48 if quick else 128
    points = [(linked, concurrency) for linked in (True, False) for concurrency in concurrencies]
    outcomes = run_cells(
        storm_cell,
        [(seed, 16, 4, DEFAULT_COSTS, None, total, concurrency, linked)
         for linked, concurrency in points],
        parallel,
    )
    rows = []
    series: dict[str, list[tuple[float, float]]] = {"linked": [], "full": []}
    for (linked, concurrency), outcome in zip(points, outcomes):
        label = "linked" if linked else "full"
        rows.append(
            [
                label,
                concurrency,
                f"{outcome['throughput_per_hour']:.0f}",
                f"{outcome['latency_p50']:.1f}",
                f"{outcome['bytes_written_gb']:.0f}",
            ]
        )
        series[label].append((concurrency, outcome["throughput_per_hour"]))
    return ExperimentResult(
        exp_id="R-F3",
        title="Provisioning throughput vs concurrency",
        headers=["mode", "concurrency", "clones/hour", "p50 latency (s)", "GB written"],
        rows=rows,
        series={f"{k} clones/hour": v for k, v in series.items()},
        notes=(
            "Linked wins at every point and saturates at the control plane; "
            "full saturates earlier, at the storage plane."
        ),
    )


# --------------------------------------------------------------------------
# R-F4 — data moved per provisioned VM.
# --------------------------------------------------------------------------


def experiment_f4_bandwidth(seed: int, quick: bool, parallel: int | None) -> ExperimentResult:
    """R-F4: data-plane bytes per provision, full vs linked."""
    from repro.core.parallel import run_cells

    total = 24 if quick else 64
    modes = (False, True)
    outcomes = run_cells(
        storm_cell,
        [(seed, 8, 4, DEFAULT_COSTS, None, total, 8, linked) for linked in modes],
        parallel,
    )
    rows = []
    for linked, outcome in zip(modes, outcomes):
        per_vm_gb = outcome["bytes_written_gb"] / max(1, outcome["completed"])
        rows.append(
            [
                "linked" if linked else "full",
                outcome["completed"],
                f"{outcome['bytes_written_gb']:.1f}",
                f"{per_vm_gb:.3f}",
            ]
        )
    full_gb = float(rows[0][3])
    linked_gb = float(rows[1][3])
    reduction = full_gb / linked_gb if linked_gb > 0 else float("inf")
    return ExperimentResult(
        exp_id="R-F4",
        title="Data moved per provisioned VM",
        headers=["mode", "VMs", "total GB", "GB per VM"],
        rows=rows,
        notes=f"Linked clones reduce data-plane bytes by {reduction:.0f}x "
        "(inf means zero bytes moved).",
    )


# --------------------------------------------------------------------------
# R-F5 — control-plane utilization vs provisioning rate.
# --------------------------------------------------------------------------


def experiment_f5_cp_load(seed: int, quick: bool, parallel: int | None) -> ExperimentResult:
    """R-F5: which resource saturates as linked-clone deploy rate rises."""
    from repro.core.parallel import run_cells

    rates = (0.25, 1.0, 4.0) if quick else (0.25, 0.5, 1.0, 2.0, 3.0, 4.0)
    duration = 1200.0 if quick else 1800.0
    rows = []
    series = {"cpu": [], "db": [], "hostd": []}
    outcomes = run_cells(
        _open_loop_cell, [(seed, Poisson(rate=rate), duration, None) for rate in rates], parallel
    )
    for rate, outcome in zip(rates, outcomes):
        rows.append(
            [
                f"{rate:.2f}",
                outcome["done"],
                f"{outcome['cpu']:.2f}",
                f"{outcome['db']:.2f}",
                f"{outcome['hostd_mean']:.2f}",
                f"{outcome['p50']:.1f}",
                outcome["bottleneck"],
            ]
        )
        series["cpu"].append((rate, outcome["cpu"]))
        series["db"].append((rate, outcome["db"]))
        series["hostd"].append((rate, outcome["hostd_mean"]))
    return ExperimentResult(
        exp_id="R-F5",
        title="Control-plane utilization vs linked-clone deploy rate",
        headers=["rate (ops/s)", "done", "cpu", "db", "hostd", "p50 (s)", "bottleneck"],
        rows=rows,
        series={f"{k} utilization": v for k, v in series.items()},
        notes="With zero data-plane bytes, a control-plane resource saturates first.",
    )


# --------------------------------------------------------------------------
# R-F6 — reconfiguration cost vs inventory scale.
# --------------------------------------------------------------------------


def _f6_cell(cell: tuple[int, int, int]) -> tuple[float, float]:
    """One R-F6 sweep cell: rescan + add-host latency at one inventory size."""
    from repro.datacenter.entities import Host
    from repro.operations.reconfiguration import AddHost, RescanDatastore

    seed, host_count, datastore_count = cell
    rig = StormRig(seed=seed, hosts=host_count, datastores=datastore_count)
    process = rig.server.submit(RescanDatastore(rig.datastores[0]))
    rescan_task = rig.sim.run(until=process)
    new_host = Host(entity_id="host-new", name="esx-new")
    process = rig.server.submit(
        AddHost(new_host, rig.cluster, rig.datastores, networks=[rig.network])
    )
    addhost_task = rig.sim.run(until=process)
    return rescan_task.latency, addhost_task.latency


def experiment_f6_reconfig_scale(seed: int, quick: bool, parallel: int | None) -> ExperimentResult:
    """R-F6: rescan and add-host latency as the inventory grows."""
    from repro.core.parallel import run_cells

    host_counts = (8, 32) if quick else (8, 16, 32, 64, 128)
    datastore_count = 8
    rows = []
    rescan_series = []
    addhost_series = []
    outcomes = run_cells(
        _f6_cell,
        [(seed, host_count, datastore_count) for host_count in host_counts],
        parallel=parallel,
    )
    for host_count, (rescan_latency, addhost_latency) in zip(host_counts, outcomes):
        rows.append(
            [
                host_count,
                datastore_count,
                f"{rescan_latency:.1f}",
                f"{addhost_latency:.1f}",
            ]
        )
        rescan_series.append((host_count, rescan_latency))
        addhost_series.append((host_count, addhost_latency))
    return ExperimentResult(
        exp_id="R-F6",
        title="Reconfiguration cost vs inventory scale",
        headers=["hosts", "datastores", "rescan (s)", "add host (s)"],
        rows=rows,
        series={
            "rescan latency (s)": rescan_series,
            "add-host latency (s)": addhost_series,
        },
        notes="Rescan grows with mounting hosts; add-host with datastore count.",
    )


# --------------------------------------------------------------------------
# R-F7 — task-queue depth during a burst.
# --------------------------------------------------------------------------


def experiment_f7_queue_depth(seed: int, quick: bool, parallel: int | None) -> ExperimentResult:
    """R-F7: management task queue during an MMPP provisioning burst."""
    from repro.core.parallel import run_cells

    duration = 1800.0 if quick else 7200.0
    # Burst rate is far above the control plane's ~3 ops/s service ceiling,
    # so every burst builds a backlog that drains through the calm phase.
    arrivals = MMPPBurst(
        calm_rate=0.02, burst_rate=6.0, mean_calm_s=900.0, mean_burst_s=150.0
    )
    (outcome,) = run_cells(
        _open_loop_cell,
        [(seed, arrivals, duration, ControlPlaneConfig(max_inflight_tasks=24))],
        parallel,
    )
    depth_series = outcome["depth_series"]
    max_depth = max((depth for _, depth in depth_series), default=0.0)
    return ExperimentResult(
        exp_id="R-F7",
        title="Task-queue depth under bursty provisioning",
        headers=["metric", "value"],
        rows=[
            ["clones completed", outcome["done"]],
            ["max queue depth", f"{max_depth:.0f}"],
            ["time-mean queue depth", f"{outcome['mean_depth']:.2f}"],
        ],
        series={"queue depth": [(t, d) for t, d in depth_series]},
        notes="Bursts overwhelm the dispatch limit; depth spikes then drains.",
    )


# --------------------------------------------------------------------------
# R-F8 — end-to-end deploy latency breakdown.
# --------------------------------------------------------------------------


def _f8_cell(cell: tuple[int, int, bool]) -> tuple[dict[str, float], str]:
    """One R-F8 cell: a deploy batch's plane split and its top three phases."""
    from repro.analysis.bottleneck import phase_breakdown, plane_breakdown
    from repro.operations.provisioning import DeployFromTemplate
    from repro.traces.records import TraceRecord

    seed, total, linked = cell
    rig = StormRig(seed=seed, hosts=8, datastores=4, traced=True)
    for index in range(total):
        rig.server.submit(
            DeployFromTemplate(
                rig.template,
                f"deploy-{index}",
                rig.hosts[index % len(rig.hosts)],
                rig.datastores[index % len(rig.datastores)],
                linked=linked,
            )
        )
    rig.sim.run()
    tasks = rig.server.tasks.succeeded()
    breakdown = plane_breakdown([TraceRecord.from_task(task) for task in tasks])
    top_phases = phase_breakdown(tasks)[:3]
    return breakdown, ", ".join(f"{name}({plane[0]})" for name, plane, _ in top_phases)


def experiment_f8_breakdown(seed: int, quick: bool, parallel: int | None) -> ExperimentResult:
    """R-F8: where deploy time goes — control vs data plane, full vs linked."""
    from repro.core.parallel import run_cells

    total = 16 if quick else 48
    modes = (False, True)
    outcomes = run_cells(_f8_cell, [(seed, total, linked) for linked in modes], parallel)
    rows = [
        [
            "linked" if linked else "full",
            f"{breakdown['control'] * 100:.0f}",
            f"{breakdown['data'] * 100:.0f}",
            f"{breakdown['unattributed'] * 100:.0f}",
            top_phases,
        ]
        for linked, (breakdown, top_phases) in zip(modes, outcomes)
    ]
    return ExperimentResult(
        exp_id="R-F8",
        title="Deploy latency breakdown by plane",
        headers=["mode", "control %", "data %", "queued %", "top phases"],
        rows=rows,
        notes="Full deploys are data-dominated; linked deploys are 100% control.",
    )


# --------------------------------------------------------------------------
# R-T3 — design ablations.
# --------------------------------------------------------------------------


def experiment_t3_ablations(seed: int, quick: bool, parallel: int | None) -> ExperimentResult:
    """R-T3: which control-plane design knobs actually buy throughput."""
    from repro.core.parallel import run_cells

    total = 48 if quick else 128
    concurrency = 32
    variants: list[tuple[str, ControlPlaneConfig]] = [
        ("baseline", ControlPlaneConfig()),
        ("db batching", ControlPlaneConfig(db_batching=True)),
        ("2x cpu workers", ControlPlaneConfig(cpu_workers=16)),
        ("2x db connections", ControlPlaneConfig(db_connections=32)),
        ("2x host op slots", ControlPlaneConfig(per_host_op_slots=16)),
        ("2x copy slots", ControlPlaneConfig(copy_slots_per_datastore=8)),
        ("coarse locks", ControlPlaneConfig(lock_granularity="coarse")),
    ]
    outcomes = run_cells(
        storm_cell,
        [(seed, 16, 4, DEFAULT_COSTS, config, total, concurrency, True)
         for _label, config in variants],
        parallel,
    )
    baseline_tph = outcomes[0]["throughput_per_hour"]
    rows = [
        [
            label,
            f"{outcome['throughput_per_hour']:.0f}",
            f"{outcome['throughput_per_hour'] / baseline_tph:.2f}x",
            f"{outcome['latency_p50']:.1f}",
        ]
        for (label, _config), outcome in zip(variants, outcomes)
    ]
    return ExperimentResult(
        exp_id="R-T3",
        title="Linked-clone storm throughput under design ablations",
        headers=["variant", "clones/hour", "vs baseline", "p50 latency (s)"],
        rows=rows,
        notes=(
            "Knobs on the actual bottleneck help; data-plane knobs (copy "
            "slots) do nothing for linked clones; coarse locking collapses."
        ),
    )


# --------------------------------------------------------------------------
# R-F9 — scale-out shards.
# --------------------------------------------------------------------------


def _f9_cell(cell: tuple[int, int, int, int]) -> tuple[int, float]:
    """One R-F9 sweep cell: a clone storm at one shard count."""
    from repro.controlplane.shard import ShardedControlPlane
    from repro.datacenter.entities import Datastore, Host
    from repro.datacenter.templates import MEDIUM_LINUX, TemplateLibrary
    from repro.operations.provisioning import CloneVM

    seed, shard_count, total_hosts, clones = cell
    sim = Simulator()
    plane = ShardedControlPlane(sim, RandomStreams(seed), shard_count=shard_count)
    hosts = []
    shard_assets: dict[str, tuple] = {}
    for index in range(total_hosts):
        host = Host(entity_id=f"host-{index}", name=f"esx{index:02d}")
        shard = plane.adopt_host(host)
        hosts.append(host)
        if shard.name not in shard_assets:
            datastore = shard.inventory.create(
                Datastore, name=f"lun-{shard.name}", capacity_gb=200_000.0
            )
            library = TemplateLibrary(shard.inventory)
            template = library.publish(MEDIUM_LINUX, datastore)
            shard_assets[shard.name] = (template, datastore)
        host.mount(shard_assets[plane.shard_for_host(host).name][1])
    start = sim.now
    for index in range(clones):
        host = hosts[index % len(hosts)]
        shard = plane.shard_for_host(host)
        template, datastore = shard_assets[shard.name]
        plane.submit_on(
            host, CloneVM(template, f"vm-{index}", host, datastore, linked=True)
        )
    sim.run()
    makespan = sim.now - start
    throughput = plane.completed_tasks() / makespan * 3600.0 if makespan else 0.0
    return plane.completed_tasks(), throughput


def experiment_f9_shards(seed: int, quick: bool, parallel: int | None) -> ExperimentResult:
    """R-F9: provisioning throughput vs management-server shard count."""
    from repro.core.parallel import run_cells

    shard_counts = (1, 2, 4) if quick else (1, 2, 4, 8)
    total_hosts = 16
    clones = 64 if quick else 192
    rows = []
    series = []
    outcomes = run_cells(
        _f9_cell,
        [(seed, shard_count, total_hosts, clones) for shard_count in shard_counts],
        parallel=parallel,
    )
    for shard_count, (completed, throughput) in zip(shard_counts, outcomes):
        rows.append([shard_count, completed, f"{throughput:.0f}"])
        series.append((shard_count, throughput))
    return ExperimentResult(
        exp_id="R-F9",
        title="Throughput vs management-plane shard count",
        headers=["shards", "clones done", "clones/hour"],
        rows=rows,
        series={"clones/hour": series},
        notes="Near-linear until per-host agent slots dominate.",
    )


# --------------------------------------------------------------------------
# R-F10 — VM lifetime distributions.
# --------------------------------------------------------------------------


def _f10_cell(cell: tuple[int, str, typing.Any, int]) -> list[float]:
    """One R-F10 cell: ``samples`` sorted lifetimes from one model.

    The stream is derived from the seed by the label's name, so each
    cell draws the same lifetimes however the cells are scheduled.
    """
    seed, label, model, samples = cell
    rng = RandomStreams(seed).stream(f"life:{label}")
    return sorted(model.sample(rng) for _ in range(samples))


def experiment_f10_lifetimes(seed: int, quick: bool, parallel: int | None) -> ExperimentResult:
    """R-F10: VM lifetime CDFs, cloud vs classic datacenter."""
    from repro.core.parallel import run_cells

    samples = 2000 if quick else 20000
    models = (("cloud_a", CLOUD_A_LIFETIME), ("classic_dc", CLASSIC_DC_LIFETIME))
    outcomes = run_cells(
        _f10_cell, [(seed, label, model, samples) for label, model in models], parallel
    )
    series = {}
    rows = []
    for (label, _model), drawn in zip(models, outcomes):
        series[f"{label} lifetime CDF (hours)"] = [
            (drawn[int(fraction * (samples - 1))] / 3600.0, fraction)
            for fraction in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
        ]
        rows.append(
            [
                label,
                f"{drawn[samples // 2] / 3600.0:.1f}",
                f"{drawn[int(samples * 0.9)] / 3600.0:.1f}",
                f"{drawn[int(samples * 0.99)] / 86400.0:.1f}",
            ]
        )
    return ExperimentResult(
        exp_id="R-F10",
        title="VM lifetime distribution: cloud vs classic",
        headers=["setup", "p50 (h)", "p90 (h)", "p99 (days)"],
        rows=rows,
        series=series,
        notes="Cloud VMs live hours; classic VMs live months (claim 2 churn).",
    )


# --------------------------------------------------------------------------
# Extensions beyond the paper's exhibits (labeled R-X*): the same
# control-plane lens applied to availability and monitoring load.
# --------------------------------------------------------------------------


def _x1_cell(cell: tuple[int, int]) -> tuple[int, float, float]:
    """One R-X1 cell: fail a host holding ``density`` VMs and restart them.

    Returns (VMs restarted, full recovery seconds, p95 restart latency).
    """
    from repro.cloud.ha import HAManager
    from repro.datacenter.vm import PowerState, VirtualDisk, VirtualMachine
    from repro.storage.linked_clone import create_linked_backing

    seed, density = cell
    rig = StormRig(seed=seed, hosts=8, datastores=4)
    anchor = rig.template.disks[0].backing
    victim = rig.hosts[0]
    for index in range(density):
        # Seeded directly: the experiment measures recovery, not
        # provisioning.
        vm = rig.server.inventory.create(
            VirtualMachine,
            name=f"resident-{index}",
            power_state=PowerState.ON,
        )
        backing = create_linked_backing(anchor, rig.datastores[index % 4])
        vm.attach_disk(
            VirtualDisk(label="disk-0", backing=backing, provisioned_gb=40.0)
        )
        vm.place_on(victim)
    ha = HAManager(rig.server, rig.cluster)
    outcome = {}

    def recover():
        outcome.update((yield from ha.fail_host(victim)))

    start = rig.sim.now
    process = rig.sim.spawn(recover())
    rig.sim.run(until=process)
    return outcome["restarted"], rig.sim.now - start, ha.restart_latency.percentile(0.95)


def experiment_x1_restart_storm(seed: int, quick: bool, parallel: int | None) -> ExperimentResult:
    """R-X1 (extension): HA restart storm cost vs VMs per failed host.

    When a host dies, its VMs restart elsewhere — a placement + power-on
    burst through the control plane. Time-to-recovery scales with the VM
    density clouds run at.
    """
    from repro.core.parallel import run_cells

    densities = (4, 16) if quick else (4, 8, 16, 32, 64)
    outcomes = run_cells(_x1_cell, [(seed, density) for density in densities], parallel)
    rows = []
    series = []
    for density, (restarted, recovery_s, p95) in zip(densities, outcomes):
        rows.append([density, restarted, f"{recovery_s:.1f}", f"{p95:.1f}"])
        series.append((density, recovery_s))
    return ExperimentResult(
        exp_id="R-X1",
        title="HA restart storm: recovery time vs VM density (extension)",
        headers=["VMs on host", "restarted", "full recovery (s)", "p95 restart (s)"],
        rows=rows,
        series={"recovery time (s)": series},
        notes="Restarts are pure control-plane work; recovery scales with density.",
    )


def _x2_cell(cell: tuple[int, int, int]) -> tuple[float, float, float]:
    """One R-X2 cell: a linked-clone storm beside stats collection at ``level``.

    Returns (clones/hour, database utilization, scraped stats rows/s).
    """
    from repro.controlplane.stats_sync import StatsCollector

    seed, level, total = cell
    rig = StormRig(
        seed=seed,
        hosts=16,
        datastores=4,
        config=ControlPlaneConfig(db_connections=4),
        telemetry=True,
    )
    rig.telemetry.start()
    if level > 0:
        collector = StatsCollector(rig.server, interval_s=5.0, level=level)
        collector.start(until=36_000.0)
    outcome = rig.closed_loop_storm(total, concurrency=32, linked=True)
    elapsed = rig.sim.now
    rows_series = rig.telemetry.rollups.get(
        f'{rig.server.name}.stats.rows{{component="statsd"}}'
    )
    scraped_rows = rows_series.trailing(elapsed, elapsed).sum if rows_series else 0.0
    return (
        outcome["throughput_per_hour"],
        rig.server.database.utilization(),
        scraped_rows / elapsed if elapsed else 0.0,
    )


def experiment_x2_stats_tax(seed: int, quick: bool, parallel: int | None) -> ExperimentResult:
    """R-X2 (extension): the statistics-collection tax on provisioning.

    Periodic per-host stats collection is the control plane's always-on
    load. Sweeping the stats level under a fixed linked-clone storm shows
    monitoring fidelity competing directly with provisioning throughput.

    The modeled stats load itself is read back through the telemetry
    scraper: the collector's scoped ``rows`` counter is scraped into
    roll-up windows, and the reported rows/s comes from the roll-up sums
    — the same windowing the modeled vCenter hierarchy applies, one
    implementation serving both the model and its observation.
    """
    from repro.core.parallel import run_cells

    levels = (0, 4) if quick else (0, 1, 2, 3, 4)
    total = 48 if quick else 96
    outcomes = run_cells(_x2_cell, [(seed, level, total) for level in levels], parallel)
    baseline = outcomes[0][0]
    rows = [
        [level, f"{tph:.0f}", f"{tph / baseline:.2f}x", f"{db:.2f}", f"{rows_per_s:.1f}"]
        for level, (tph, db, rows_per_s) in zip(levels, outcomes)
    ]
    return ExperimentResult(
        exp_id="R-X2",
        title="Provisioning throughput vs stats-collection level (extension)",
        headers=[
            "stats level",
            "clones/hour",
            "vs no stats",
            "db utilization",
            "stats rows/s (scraped)",
        ],
        rows=rows,
        series={"clones/hour": [(level, tph) for level, (tph, _, _) in zip(levels, outcomes)]},
        notes="Richer monitoring (level 4 = 27x rows) erodes provisioning "
        "headroom. The rows/s column is read from the telemetry scraper's "
        "roll-ups, not the raw counter.",
    )


def experiment_x3_fault_goodput(seed: int, quick: bool, parallel: int | None) -> ExperimentResult:
    """R-X3 (extension): provisioning goodput under faults vs resilience.

    An open-loop CLOUD_A-style deploy storm (1.6 deploys/s, ~0.65 of
    fault-free capacity) runs against a cluster while a standard fault
    schedule flaps hosts, degrades host agents (latency + drops), and
    slows the database. The three resilience postures of
    :func:`repro.faults.chaos.deploy_rig` are ablated:

    - ``none``: first failure is final (the pre-resilience plane);
    - ``retries``: the director re-places failed VMs with backoff;
    - ``full``: re-placement plus per-agent circuit breakers (fail fast
      instead of burning the call timeout), task deadlines, and admission
      shedding at the API gateway.

    Goodput counts successfully deployed VMs over the arrival window.
    Acceptance: goodput(none) < goodput(retries) < goodput(full); zero
    dead letters and zero unaccounted tasks with full resilience; every
    posture holds exactly-once.
    """
    from repro.core.parallel import run_cells
    from repro.faults import standard_fault_schedule
    from repro.faults.chaos import POSTURES, deploy_rig

    duration_s = 600.0 if quick else 1500.0
    faults = standard_fault_schedule(duration_s, scale=1.5).specs
    results = run_cells(
        _fault_point_cell,
        [
            (deploy_rig, {"seed": seed, "posture": posture, "duration_s": duration_s}, faults)
            for posture in POSTURES
        ],
        parallel,
    )
    rows = []
    goodputs: dict[str, float] = {}
    for posture, result in zip(POSTURES, results):
        counters = result.counters
        goodputs[posture] = counters["timely_vms"] * 3600.0 / duration_s
        rows.append(
            [
                posture,
                counters["offered"],
                f"{counters['vms']} ({counters['timely_vms']})",
                f"{goodputs[posture]:.0f}",
                f"{counters['p99_latency_s']:.1f}",
                counters["re_places"],
                counters["breaker_opens"],
                counters["shed"],
                result.dead_letters,
                counters["unaccounted"],
            ]
        )
    series = {
        "goodput (VMs/hour)": [
            (float(index), goodputs[posture]) for index, posture in enumerate(POSTURES)
        ]
    }
    return ExperimentResult(
        exp_id="R-X3",
        title="Deploy goodput under a standard fault schedule (extension)",
        headers=[
            "resilience",
            "offered",
            "succeeded (timely)",
            "goodput/h",
            "p99 (s)",
            "re-places",
            "breaker opens",
            "shed",
            "dead letters",
            "unaccounted",
        ],
        rows=rows,
        series=series,
        notes=(
            "Same arrivals and fault windows per variant. Re-placement "
            "recovers most faulted VMs; breakers + shedding + deadlines "
            "keep timeout storms from eating the window (goodput "
            f"{goodputs['none']:.0f} < {goodputs['retries']:.0f} < "
            f"{goodputs['full']:.0f} VMs/h)."
        ),
    )


def experiment_x4_crash_mttr(seed: int, quick: bool, parallel: int | None) -> ExperimentResult:
    """R-X4 (extension): crash recovery — MTTR and goodput vs downtime.

    A closed-loop full-clone storm runs with the task journal on while a
    single :class:`~repro.faults.ServerCrash` window takes the management
    server down at a chosen point in the storm (a fraction of the
    no-crash baseline makespan) for a chosen downtime. On restart the
    recovery manager replays the journal and reconciles the interrupted
    tasks — adopting completed orphans, rolling back half-done
    placements, re-issuing the rest.

    MTTR is measured from the crash to the moment the last pre-crash task
    reaches a terminal state: downtime dominates it (parked tasks cannot
    finish while the server is down), with the replay + re-issued work as
    the tail. Goodput is completed clones over the (inflated) makespan.
    Acceptance: the exactly-once invariant holds in every cell (zero
    violations, zero lost tasks), and MTTR grows with downtime while
    goodput falls.
    """
    from repro.core.parallel import run_cells
    from repro.faults.chaos import storm_rig
    from repro.faults.schedule import ServerCrash

    total = 10 if quick else 20
    concurrency = 4
    # Downtime levels span well past the cost of re-issuing one full clone
    # (~400s of copy work) — otherwise re-work noise hides the trend.
    downtimes = (10.0, 300.0) if quick else (10.0, 180.0, 600.0)
    fractions = (0.3, 0.6) if quick else (0.15, 0.4, 0.7)
    storm = {"seed": seed, "total": total, "concurrency": concurrency, "linked": False}
    # The crash points are fractions of the no-crash makespan, so the
    # baseline runs first, on its own; the crash cells then pool.
    baseline = _fault_point_cell((storm_rig, storm, []))
    crashes = [
        (downtime, fraction * baseline.makespan_s, fraction)
        for downtime in downtimes
        for fraction in fractions
    ]
    results = run_cells(
        _fault_point_cell,
        [
            (storm_rig, storm, [ServerCrash(start_s=crash_at, duration_s=downtime, count=1)])
            for downtime, crash_at, _fraction in crashes
        ],
        parallel,
    )

    def row(downtime_label: str, crash_label: str, result) -> list:
        counters = result.counters
        return [
            downtime_label,
            crash_label,
            result.completed,
            result.dead_letters,
            counters["parked"],
            f"{counters['adopted']}/{counters['reissued']}/{counters['requeued']}",
            f"{result.makespan_s:.0f}",
            f"{result.makespan_s / baseline.makespan_s:.2f}x",
            f"{result.goodput_per_hour:.0f}",
            f"{counters['mttr_s']:.1f}",
        ]

    rows = [row("none", "-", baseline)]
    mttr_by_downtime: dict[float, list[float]] = {d: [] for d in downtimes}
    goodput_by_downtime: dict[float, list[float]] = {d: [] for d in downtimes}
    for (downtime, crash_at, fraction), result in zip(crashes, results):
        mttr_by_downtime[downtime].append(result.counters["mttr_s"])
        goodput_by_downtime[downtime].append(result.goodput_per_hour)
        rows.append(row(f"{downtime:.0f}", f"{crash_at:.0f} ({fraction:.0%})", result))
    series = {
        "MTTR (s) vs downtime (s)": [
            (downtime, sum(values) / len(values))
            for downtime, values in sorted(mttr_by_downtime.items())
        ],
        "goodput (clones/h) vs downtime (s)": [
            (downtime, sum(values) / len(values))
            for downtime, values in sorted(goodput_by_downtime.items())
        ],
    }
    return ExperimentResult(
        exp_id="R-X4",
        title="Crash recovery: MTTR and goodput vs server downtime (extension)",
        headers=[
            "downtime (s)",
            "crash at (s)",
            "completed",
            "dead",
            "parked",
            "adopt/reissue/requeue",
            "makespan (s)",
            "inflation",
            "goodput/h",
            "MTTR (s)",
        ],
        rows=rows,
        series=series,
        notes=(
            "Journal on; exactly-once held in every cell (zero lost or "
            "duplicated terminal states). MTTR is crash-to-last-affected-"
            "task-terminal; downtime dominates it, replay and re-issued "
            "attempts add the tail. Every crash cell reuses the baseline "
            "workload seed, so rows are directly comparable."
        ),
    )


# The message-fault overlay cells of R-X5 and R-X8: (kind, intensity).
_MESSAGE_CELLS = (
    ("drop", 0.3), ("duplicate", 0.3), ("delay", 2.0), ("reorder", 0.5), ("partition", 0.0),
)


def experiment_x5_bus_chaos(seed: int, quick: bool, parallel: int | None) -> ExperimentResult:
    """R-X5 (extension): direct calls vs a bus-mediated control plane under chaos.

    The same closed-loop linked-clone restart storm (journal on, one
    :class:`~repro.faults.ServerCrash` window mid-storm) runs in three
    designs: direct in-process calls (the pre-bus control plane), the
    message bus with no message faults, and the bus under each
    ``MessageFault`` kind — drop, duplicate, delay, reorder, and a topic
    partition — layered on top of the crash window.

    Acceptance: zero lost or duplicated terminal task states in every
    cell (``check_exactly_once``), with goodput and the bus's added
    queueing latency reported. At-least-once redelivery plus
    idempotency-key dedup is what keeps the invariant intact while
    messages are being dropped and cloned.
    """
    from repro.core.parallel import run_cells
    from repro.faults.chaos import storm_rig
    from repro.faults.schedule import ServerCrash, message_fault

    total = 8 if quick else 16
    concurrency = 4
    downtime = 30.0
    storm = {"seed": seed, "total": total, "concurrency": concurrency}

    # The fault-free direct run is both the first row and the clock the
    # crash and fault windows are placed by, so it runs first, on its own.
    baseline = _fault_point_cell((storm_rig, storm, []))
    crash_at = 0.35 * baseline.makespan_s
    crash = ServerCrash(start_s=crash_at, duration_s=downtime, count=1)
    # The message-fault window opens before the crash and stays armed
    # through the restart replay, so redelivery/dedup are exercised
    # against recovery traffic too, not just the steady-state storm.
    fault_at = max(1.0, 0.2 * baseline.makespan_s)
    fault_s = (crash_at - fault_at) + downtime + 20.0
    # (label, bus-mediated, faults)
    designs: list[tuple[str, bool, list]] = [
        ("direct+crash", False, [crash]),
        ("bus", True, [crash]),
    ]
    for kind, intensity in _MESSAGE_CELLS:
        designs.append(
            (f"bus+{kind}", True, [message_fault(kind, intensity, fault_at, fault_s), crash])
        )
    results = run_cells(
        _fault_point_cell,
        [(storm_rig, {**storm, "bus": bus}, faults) for _label, bus, faults in designs],
        parallel,
    )

    rows = []
    goodputs: list[tuple[str, float]] = []
    for (label, bus, _faults), result in zip(
        [("direct", False, [])] + designs, [baseline] + results
    ):
        tallies: list = ["-"] * 4
        wait_ms = "-"
        if bus:
            counters = result.counters
            tallies = [counters[n] for n in ("published", "redelivered", "deduped", "dropped")]
            waits = counters["queue_waits"]
            wait_ms = f"{counters['queue_wait_s'] / waits * 1000.0 if waits else 0.0:.1f}"
        goodput = f"{result.goodput_per_hour:.0f}"
        rows.append([label, result.completed, result.dead_letters, *tallies, goodput, wait_ms])
        goodputs.append((label, result.goodput_per_hour))

    series = {
        "goodput (clones/hour) by design": [
            (float(index), goodput) for index, (_label, goodput) in enumerate(goodputs)
        ]
    }
    return ExperimentResult(
        exp_id="R-X5",
        title="Message-bus chaos: direct vs bus-mediated under faults (extension)",
        headers=[
            "design",
            "completed",
            "dead",
            "published",
            "redelivered",
            "deduped",
            "dropped",
            "goodput/h",
            "mean queue wait (ms)",
        ],
        rows=rows,
        series=series,
        notes=(
            "Every cell passed check_exactly_once: zero lost or duplicated "
            "terminal task states across the crash window and every message-"
            "fault kind. Redelivery timers resend dropped messages; consumers "
            "dedup duplicates by task idempotency key; the queue-wait column "
            "is the bus's added queueing latency (direct calls have none)."
        ),
    )


# --------------------------------------------------------------------------
# R-F-phase — stacked per-phase provisioning-latency breakdown.
# --------------------------------------------------------------------------

# Raw span phases folded into the exhibit's stack. Task/request/retry self
# time (scheduling gaps, attempt framing, backoff) is "other".
PHASE_FOLD: dict[str, str] = {
    "queue": "queue",
    "placement": "placement",
    "db": "db",
    "agent": "agent",
    "cpu": "cpu",
    "lock": "lock",
    "copy": "copy",
    "task": "other",
    "request": "other",
    "retry": "other",
    "recovery": "other",
    "bus": "other",
}
FOLDED_PHASES = ("queue", "placement", "db", "agent", "cpu", "lock", "copy", "other")


def _f_phase_cell(cell: tuple[int, int, int, bool]) -> dict[str, float]:
    """One R-F-phase cell: a traced storm folded to per-phase seconds."""
    from repro.analysis.spans import aggregate_phase_attribution

    seed, total, concurrency, linked = cell
    rig = StormRig(seed=seed, traced=True)
    rig.closed_loop_storm(total=total, concurrency=concurrency, linked=linked)
    roots = [task.span for task in rig.server.tasks.succeeded()]
    count = len(roots)
    attribution = aggregate_phase_attribution(roots)
    folded = {name: 0.0 for name in FOLDED_PHASES}
    for phase, seconds in attribution.items():
        folded[PHASE_FOLD.get(phase, "other")] += seconds / count
    return folded


def experiment_f_phase(seed: int, quick: bool, parallel: int | None) -> ExperimentResult:
    """R-F-phase: where each provisioning second goes, phase by phase.

    Traced closed-loop clone storms swept over concurrency, full vs
    linked clones. Every succeeded task's span tree is attributed
    exclusively per phase (no double counting across nesting); each row
    stacks the mean seconds per clone. This is the paper's thesis in
    span form: as concurrency grows — and especially for linked clones,
    which strip away the data plane — the control-plane trio
    (queue + placement + db) grows to dominate provisioning latency.
    """
    from repro.core.parallel import run_cells

    total = 24 if quick else 96
    concurrencies = (1, 16) if quick else (1, 4, 16, 64)
    cells = [
        (seed, total, concurrency, linked)
        for linked in (False, True)
        for concurrency in concurrencies
    ]
    outcomes = run_cells(_f_phase_cell, cells, parallel=parallel)
    rows = []
    series: dict[str, list[tuple[float, float]]] = {}
    for (_seed, _total, concurrency, linked), folded in zip(cells, outcomes):
        kind = "linked" if linked else "full"
        wall = sum(folded.values())
        trio = folded["queue"] + folded["placement"] + folded["db"]
        trio_share = trio / wall if wall > 0 else 0.0
        rows.append(
            [
                kind,
                concurrency,
                *(f"{folded[name]:.2f}" for name in FOLDED_PHASES),
                f"{wall:.2f}",
                f"{trio_share * 100:.0f}",
            ]
        )
        if linked:
            for name in ("queue", "placement", "db", "agent"):
                series.setdefault(f"linked {name} share %", []).append(
                    (float(concurrency), folded[name] / wall * 100.0 if wall else 0.0)
                )
    return ExperimentResult(
        exp_id="R-F-phase",
        title="Per-phase provisioning latency vs concurrency",
        headers=["mode", "conc", *FOLDED_PHASES, "wall s", "ctl trio %"],
        rows=rows,
        series=series,
        notes=(
            "Stacked mean seconds per clone from exclusive span attribution "
            "(columns sum to wall). The control-plane trio (queue + "
            "placement + db) grows with concurrency and comes to dominate "
            "linked-clone provisioning at high concurrency."
        ),
    )


# --------------------------------------------------------------------------
# R-F-alerts — burn-rate alert timeline under the standard fault schedule.
# --------------------------------------------------------------------------


def experiment_f_alerts(seed: int, quick: bool, parallel: int | None) -> ExperimentResult:
    """R-F-alerts: SLO burn-rate alerts vs injected faults (observability).

    The R-X3 ``full``-resilience deploy storm re-run with the live
    telemetry pipeline attached: the scraper samples every control-plane
    registry on a 5 s cadence into roll-up windows, and multi-window
    burn-rate rules (deploy latency p99, task goodput, dead letters,
    admission shedding) are evaluated on every scrape — all on simulated
    time. For each injected fault window the exhibit reports the first
    alert that covered it and the detection lead time relative to the
    fault's goodput trough (the worst 60 s completion-rate window).

    Acceptance: every injected fault is surfaced by at least one
    burn-rate alert at or before its goodput trough (lead >= 0).

    One run whose analysis reads its live telemetry, so it runs
    in-process whatever ``parallel`` asks for.
    """
    from repro.faults import standard_fault_schedule
    from repro.faults.chaos import ALERT_RULES, TASK_SUCCESS, deploy_rig, run_fault_point

    duration_s = 600.0 if quick else 1500.0
    schedule = standard_fault_schedule(duration_s, scale=1.5)
    rig = deploy_rig(
        seed, duration_s=duration_s, scrape_interval_s=5.0, rules=ALERT_RULES
    )
    run_fault_point(rig, schedule.specs).require_ok()
    telemetry = rig.env.telemetry

    # Goodput trough per fault: the worst 60 s success-completion window
    # overlapping the fault (extended one window for trailing effects).
    success_series = telemetry.rollups[TASK_SUCCESS]
    goodput_windows = success_series.windows(level=0)
    fires = [event for event in telemetry.monitor.timeline if event.kind == "fire"]
    rows = []
    covered = 0
    for spec in schedule.specs:
        candidates = [
            window
            for window in goodput_windows
            if window.end > spec.start_s and window.start < spec.end_s + 60.0
        ]
        trough = min(candidates, key=lambda window: (window.sum, window.start))
        trough_time = trough.start + trough.width / 2.0
        covering = [
            event
            for event in fires
            if event.time <= trough_time
            and _alert_end(telemetry, event) >= spec.start_s
        ]
        first = min(covering, key=lambda event: event.time) if covering else None
        if first is not None:
            covered += 1
        rows.append(
            [
                spec.kind,
                f"{spec.start_s:.0f}-{spec.end_s:.0f}",
                f"{trough_time:.0f}",
                f"{trough.rate * 3600.0:.0f}",
                first.rule if first is not None else "(none)",
                f"{first.time:.0f}" if first is not None else "-",
                f"{trough_time - first.time:+.0f}" if first is not None else "-",
            ]
        )

    series = {
        "task goodput (successes/hour, 60s windows)": [
            (window.start, window.rate * 3600.0) for window in goodput_windows
        ],
        "deploy latency p99 (s, 60s windows)": [
            (window.start, window.p(0.99))
            for window in telemetry.rollups["director_deploy_latency_s"].windows(0)
        ],
    }
    timeline = telemetry.monitor.render_timeline()
    notes = (
        f"{covered}/{len(schedule.specs)} fault windows surfaced by a "
        f"burn-rate alert before their goodput trough; "
        f"{len(fires)} alert firings over {telemetry.scraper.scrapes} scrapes.\n"
        "alert timeline:\n  " + "\n  ".join(timeline)
    )
    return ExperimentResult(
        exp_id="R-F-alerts",
        title="Burn-rate alert timeline under the standard fault schedule",
        headers=[
            "fault",
            "window (s)",
            "trough (s)",
            "trough goodput/h",
            "first alert",
            "fired (s)",
            "lead (s)",
        ],
        rows=rows,
        series=series,
        notes=notes,
    )


def _alert_end(telemetry, fire_event) -> float:
    """When the alert a fire event opened resolved (inf while it fires)."""
    for alert in telemetry.monitor.alerts:
        if alert.rule == fire_event.rule and alert.fired_at == fire_event.time:
            return alert.resolved_at if alert.resolved_at is not None else float("inf")
    return float("inf")


def experiment_x6_triage(seed: int, quick: bool, parallel: int | None) -> ExperimentResult:
    """R-X6 (extension): automated incident triage scored against ground truth.

    Randomized single-fault chaos runs on the bus-mediated,
    fully-resilient deploy storm (see :mod:`repro.triage.harness`): each
    seeded run injects one strong fault window of a rotating kind, the
    triage engine turns every SLO alert burst into a ranked root-cause
    verdict, and the scorer grades verdicts against the injector's
    resolved ground-truth manifest. The exhibit reports per-kind
    precision/recall plus the pooled confusion matrix.

    Acceptance: top-1 fault-kind accuracy >= 0.8 and window recall >= 0.7
    across the sweep.
    """
    from repro.triage.harness import QUICK_KINDS, SWEEP_KINDS, triage_sweep

    kinds = QUICK_KINDS if quick else SWEEP_KINDS
    seeds = range(seed, seed + (len(kinds) if quick else 2 * len(kinds)))
    report, points = triage_sweep(seeds, kinds, parallel)

    rows = []
    for kind in sorted(report.per_kind):
        score = report.per_kind[kind]
        if score.injected == 0 and score.named == 0:
            continue
        rows.append(
            [
                kind,
                score.injected,
                score.recalled,
                score.named,
                f"{score.precision:.2f}",
                f"{score.recall:.2f}",
            ]
        )
    rows.append(
        [
            "overall",
            sum(s.injected for s in report.per_kind.values()),
            sum(s.recalled for s in report.per_kind.values()),
            sum(s.named for s in report.per_kind.values()),
            f"{report.precision:.2f}",
            f"{report.recall:.2f}",
        ]
    )

    gates_ok = report.top1_accuracy >= 0.8 and report.recall >= 0.7
    notes = "\n".join(
        [
            f"{len(points)} randomized single-fault chaos runs, "
            f"{report.total_verdicts} verdicts "
            f"({report.unmatched_verdicts} outside fault windows, "
            f"{report.correct_rejections} honest no-culprit)",
            f"top-1 fault-kind accuracy {report.top1_accuracy:.2f} "
            f"(gate >= 0.8), recall {report.recall:.2f} (gate >= 0.7): "
            f"{'PASS' if gates_ok else 'FAIL'}",
            "",
            *report.render_confusion(),
        ]
    )
    return ExperimentResult(
        exp_id="R-X6",
        title="Automated incident triage vs injected ground truth (extension)",
        headers=["fault kind", "injected", "recalled", "named", "precision", "recall"],
        rows=rows,
        notes=notes,
    )


def experiment_x7_flight_recorder(seed: int, quick: bool, parallel: int | None) -> ExperimentResult:
    """R-X7 (extension): the incident flight recorder over the chaos sweep.

    Re-runs the R-X6 randomized single-fault chaos harness with the tail
    sampler and the flight recorder on: every run traces under a fixed
    span budget, and every fired SLO alert (or server crash) snapshots an
    incident bundle — alerts, roll-up windows, exemplar-linked retained
    span trees, bus attributions, and the triage verdict in one JSON
    document. The exhibit answers two questions:

    - **coverage** — does every alerting run produce at least one bundle
      whose retained spans overlap the injected fault window (plus the
      triage grace period)?
    - **retention** — does tail sampling hold retained spans to a bounded
      fraction of what unbounded tracing would have kept?

    Acceptance: bundle coverage 100% of alerting runs, and pooled
    retained-span peak <= 25% of the full-trace span count.
    """
    from repro.triage.harness import QUICK_KINDS, SWEEP_KINDS, triage_sweep
    from repro.triage.scoring import GRACE_S

    budget = 2048
    kinds = QUICK_KINDS if quick else SWEEP_KINDS
    runs_per_kind = 1 if quick else 2
    # Per kind: runs, alerting runs, bundles, covered alerting runs.
    per_kind = {kind: [0, 0, 0, 0] for kind in kinds}
    retained_total = 0
    offered_total = 0
    _, points = triage_sweep(
        range(seed, seed + runs_per_kind * len(kinds)), kinds, parallel,
        sample_budget=budget, recorder=True,
    )
    for point in points:
        retained_total += point.retention["retained_spans"]
        offered_total += point.retention["offered_spans"]
        tally = per_kind[point.kind]
        tally[0] += 1
        tally[2] += len(point.bundles)
        if point.alerts == 0:
            continue
        tally[1] += 1
        window = point.manifest.windows[0]
        if any(
            bundle.spans_overlapping(window.start_s, window.end_s + GRACE_S) > 0
            for bundle in point.bundles
        ):
            tally[3] += 1
    totals = [sum(column) for column in zip(*per_kind.values())]
    rows = [
        [label, *tally, "PASS" if tally[3] == tally[1] else "FAIL"]
        for label, tally in [*per_kind.items(), ("overall", totals)]
    ]
    runs, alerting, bundles, covered = totals

    ratio = retained_total / offered_total if offered_total else 0.0
    coverage_ok = covered == alerting and alerting > 0
    retention_ok = ratio <= 0.25
    notes = "\n".join(
        [
            f"{runs} chaos runs traced under a {budget}-span budget with the "
            f"flight recorder attached; {alerting} runs fired alerts and "
            f"produced {bundles} incident bundles",
            f"bundle coverage: {covered}/{alerting} alerting runs have a "
            f"bundle whose retained spans overlap the injected fault window "
            f"(+{GRACE_S:g}s grace): {'PASS' if coverage_ok else 'FAIL'}",
            f"retention: {retained_total} retained spans vs {offered_total} "
            f"full-trace spans = {ratio:.1%} (gate <= 25%): "
            f"{'PASS' if retention_ok else 'FAIL'}",
        ]
    )
    return ExperimentResult(
        exp_id="R-X7",
        title="Incident flight recorder: bundle coverage on a span budget (extension)",
        headers=["fault kind", "runs", "alerting", "bundles", "covered", "gate"],
        rows=rows,
        notes=notes,
    )


# --------------------------------------------------------------------------
# R-X8 — bus-routed shard federation vs affinity-only under skew + crash.
# --------------------------------------------------------------------------


def experiment_x8_federation(seed: int, quick: bool, parallel: int | None) -> ExperimentResult:
    """R-X8 (extension): affinity-only vs bus-routed federation under skew.

    The same skewed multi-tenant deploy storm (80% of deploys driven
    through orgs homed on shard 0, max-inflight held below the worker
    concurrency so the hot shard visibly saturates) runs through both
    federation routers — the classic org-pinned affinity router and the
    bus-routed federation (locality-preferred per-shard topics, shared
    work-stealing pool, saturation spillover) — each with and without a
    mid-run ``shard_crash`` of the hot shard, plus the R-X5 message-fault
    kinds overlaid on the federation topics for the bus design.

    Acceptance: zero lost or duplicated terminal task states *across
    shard boundaries* in every cell (``check_federation_exactly_once``),
    and under the crash the bus-routed design beats affinity-only on
    both goodput and p95 tenant deploy latency — re-routing the crashed
    shard's submissions to survivors is what keeps tenant-visible
    goodput flat while the affinity router strands its hot tenants.
    """
    from repro.core.parallel import run_cells
    from repro.faults.chaos import federation_rig, hot_shard_crash
    from repro.faults.schedule import message_fault

    total = 24 if quick else 48
    concurrency = 6 if quick else 10
    crash_at = 12.0
    downtime = 40.0
    shard_crash = hot_shard_crash("shard_crash", crash_at, downtime)

    # (label, bus-routed, faults)
    designs: list[tuple[str, bool, list]] = [
        ("affinity", False, []),
        ("affinity+crash", False, [shard_crash]),
        ("bus", True, []),
        ("bus+crash", True, [shard_crash]),
        ("bus+restart", True, [hot_shard_crash("server_crash", crash_at, downtime)]),
    ]
    if not quick:
        for kind, intensity in _MESSAGE_CELLS:
            overlay = message_fault(kind, intensity, 5.0, crash_at + downtime)
            designs.append((f"bus+crash+{kind}", True, [shard_crash, overlay]))
    common = dict(
        seed=seed, total=total, concurrency=concurrency, shards=3, hosts_per_shard=4,
        orgs=9, skew=0.8, spill_queue_depth=3,
    )
    results = run_cells(
        _fault_point_cell,
        [(federation_rig, {**common, "bus": bus}, faults) for _label, bus, faults in designs],
        parallel,
    )

    rows = []
    goodputs: list[tuple[str, float]] = []
    p95s: list[tuple[str, float]] = []
    for (label, _bus, _faults), result in zip(designs, results):
        counters = result.counters
        rows.append(
            [
                label,
                result.completed,
                result.failed,
                counters["steals"],
                counters["spills"],
                counters["reroutes"],
                counters["remote_completions"],
                f"{result.goodput_per_hour:.0f}",
                f"{counters['p95_latency_s']:.1f}",
            ]
        )
        goodputs.append((label, result.goodput_per_hour))
        p95s.append((label, counters["p95_latency_s"]))

    series = {
        "goodput (deploys/hour) by design": [
            (float(index), goodput) for index, (_label, goodput) in enumerate(goodputs)
        ],
        "p95 deploy latency (s) by design": [
            (float(index), p95) for index, (_label, p95) in enumerate(p95s)
        ],
    }
    return ExperimentResult(
        exp_id="R-X8",
        title="Bus-routed shard federation vs affinity-only under skew (extension)",
        headers=[
            "design",
            "completed",
            "failed",
            "steals",
            "spills",
            "reroutes",
            "remote",
            "goodput/h",
            "p95 (s)",
        ],
        rows=rows,
        series=series,
        notes=(
            "Every cell passed check_federation_exactly_once: no lost or "
            "duplicated terminal state across shard boundaries, every "
            "federation topic drained, every submission settled. Under the "
            "hot-shard crash the affinity router strands shard 0's tenants "
            "(failed deploys) while the bus-routed federation forwards "
            "pending submissions to survivors and re-routes new ones — "
            "higher goodput at lower p95. The message-fault cells re-run "
            "the R-X5 chaos posture on the federation topics."
        ),
    )


# --------------------------------------------------------------------------
# R-F-hyperscale — million-VM fleet cells on the hyperscale kernel.
# --------------------------------------------------------------------------


def _hyperscale_cell(
    cell: tuple[int, int, int],
) -> dict[str, typing.Any]:
    """One hyperscale shard cell: a VM fleet lifecycle on raw kernel timers.

    This deliberately bypasses the management-server task pipeline — the
    question the exhibit answers is whether the *substrate* (event queue,
    prefetched sampling) carries a paper-scale fleet, so each VM is exactly
    two kernel timers: an arrival that places it on a host and arms its
    lifetime, and the lifetime expiry that frees the slot. Nothing waits
    on or cancels either, so both are :meth:`Simulator.call_later` entries
    for shared :class:`Call` objects (one for arrivals, one per host for
    expiries): a pending VM costs one heap tuple and nothing else.

    Deterministic outputs (deploys, expiries, peak pending, makespan) are
    pure functions of ``(seed, vms)``; ``wall_s``/``rss_mb`` are measured
    perf and never enter a committed exhibit.
    """
    import resource
    import time as _time

    from repro.core.parallel import derive_seed

    seed, shard_index, vms = cell
    started = _time.perf_counter()
    sim = Simulator()
    streams = RandomStreams(derive_seed(seed, shard_index))
    # One simulated hour of arrivals, CLOUD_A lifetimes (median 6h): nearly
    # the whole fleet is still pending when arrivals stop, which is what
    # builds the deep standing timer set the exhibit exists to demonstrate.
    gap = exponentials(streams.stream("arrivals"), vms / 3600.0)
    lifetime = CLOUD_A_LIFETIME.draws(streams.stream("lifetimes"))
    host_count = vms // 128 + 1  # capacity 256/host: 2x headroom, short scans
    slots = [0] * host_count
    cursor = 0
    deploys = 0
    expiries = 0
    peak_pending = 0
    call_later = sim.call_later

    def expire(host: int) -> None:
        nonlocal expiries
        expiries += 1
        slots[host] -= 1

    expiry = [Call(functools.partial(expire, host)) for host in range(host_count)]

    def arrive() -> None:
        nonlocal cursor, deploys, peak_pending
        deploys += 1
        host = cursor
        while slots[host] >= 256:
            host = host + 1 if host + 1 < host_count else 0
        slots[host] += 1
        cursor = host + 1 if host + 1 < host_count else 0
        call_later(lifetime(), expiry[host])
        depth = sim.queue_depth
        if depth > peak_pending:
            peak_pending = depth
        if deploys < vms:
            call_later(gap(), arrival)

    arrival = Call(arrive)
    call_later(gap(), arrival)
    sim.run()
    return {
        "shard": shard_index,
        "deploys": deploys,
        "expiries": expiries,
        "peak_pending": peak_pending,
        "makespan_s": sim.now,
        "wall_s": _time.perf_counter() - started,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def hyperscale_sweep(
    seed: int = 0,
    quick: bool = False,
    parallel: int | None = None,
    fleets: typing.Sequence[int] | None = None,
    shard_counts: typing.Sequence[int] | None = None,
) -> list[dict[str, typing.Any]]:
    """The R-F-hyperscale grid: fleet size x shard count, one dict per config.

    Each config splits the fleet evenly over ``shards`` independent cells
    (cell seeds derived per shard index, so a cell's schedule never depends
    on worker count or which process ran it) and aggregates. Deterministic
    fields feed the committed exhibit; ``events_per_s``/``rss_mb`` are for
    the CLI and the perf bench only.
    """
    from repro.core.parallel import run_cells

    if fleets is None:
        fleets = (2_000, 10_000) if quick else (100_000, 1_000_000)
    if shard_counts is None:
        shard_counts = (1, 2) if quick else (1, 4, 8)
    if min(shard_counts) < 1 or min(fleets) < max(shard_counts):
        raise ValueError(f"need fleet >= shards >= 1, got {list(fleets)} / {list(shard_counts)}")
    points = []
    for fleet in fleets:
        for shards in shard_counts:
            per_cell = fleet // shards
            cells = [(seed, shard_index, per_cell) for shard_index in range(shards)]
            outcomes = run_cells(_hyperscale_cell, cells, parallel=parallel)
            events = sum(o["deploys"] + o["expiries"] for o in outcomes)
            wall = max(o["wall_s"] for o in outcomes)
            points.append(
                {
                    "vms": per_cell * shards,
                    "shards": shards,
                    "deploys": sum(o["deploys"] for o in outcomes),
                    "expiries": sum(o["expiries"] for o in outcomes),
                    "peak_pending": max(o["peak_pending"] for o in outcomes),
                    "makespan_s": max(o["makespan_s"] for o in outcomes),
                    "events": events,
                    "events_per_s": events / wall if wall else 0.0,
                    "wall_s": wall,
                    "rss_mb": max(o["rss_mb"] for o in outcomes),
                }
            )
    return points


def experiment_f_hyperscale(seed: int, quick: bool, parallel: int | None) -> ExperimentResult:
    """R-F-hyperscale: fleet cells to 1M VMs on the hyperscale kernel."""
    points = hyperscale_sweep(seed=seed, quick=quick, parallel=parallel)
    rows = []
    series = []
    for point in points:
        rows.append(
            [
                point["vms"],
                point["shards"],
                point["deploys"],
                point["expiries"],
                point["peak_pending"],
                f"{point['makespan_s'] / 86_400.0:.1f}",
            ]
        )
        if point["shards"] == 1:
            series.append((point["vms"], point["peak_pending"]))
    return ExperimentResult(
        exp_id="R-F-hyperscale",
        title="Hyperscale fleet cells (VM lifecycles on raw kernel timers)",
        headers=[
            "VMs", "shards", "deploys", "expiries", "peak pending", "drain days",
        ],
        rows=rows,
        series={"peak pending timers (1 shard)": series},
        notes=(
            "Arrivals over one simulated hour, CLOUD_A lifetimes; nearly the "
            "whole fleet stands in the pending queue at once. Wall-clock and "
            "RSS are reported by `python -m repro hyperscale` and gated by "
            "benchmarks/bench_hyperscale.py, never committed here."
        ),
    )


EXPERIMENTS: dict[str, typing.Callable[[int, bool, int | None], ExperimentResult]] = {
    "R-T1": experiment_t1_setups,
    "R-T2": experiment_t2_opmix,
    "R-T3": experiment_t3_ablations,
    "R-F1": experiment_f1_arrivals,
    "R-F2": experiment_f2_latency_cdf,
    "R-F3": experiment_f3_throughput,
    "R-F4": experiment_f4_bandwidth,
    "R-F5": experiment_f5_cp_load,
    "R-F6": experiment_f6_reconfig_scale,
    "R-F7": experiment_f7_queue_depth,
    "R-F8": experiment_f8_breakdown,
    "R-F9": experiment_f9_shards,
    "R-F10": experiment_f10_lifetimes,
    "R-F-phase": experiment_f_phase,
    "R-F-alerts": experiment_f_alerts,
    "R-F-hyperscale": experiment_f_hyperscale,
    "R-X1": experiment_x1_restart_storm,
    "R-X2": experiment_x2_stats_tax,
    "R-X3": experiment_x3_fault_goodput,
    "R-X4": experiment_x4_crash_mttr,
    "R-X5": experiment_x5_bus_chaos,
    "R-X6": experiment_x6_triage,
    "R-X7": experiment_x7_flight_recorder,
    "R-X8": experiment_x8_federation,
}


def run_experiment(
    exp_id: str, seed: int = 0, quick: bool = False, parallel: int | None = None
) -> ExperimentResult:
    """Run one registered experiment by id (e.g. ``"R-F3"``).

    ``parallel`` fans the exhibit's cells across that many worker
    processes (an exhibit with one cell runs in-process); ``None`` defers
    to ``REPRO_BENCH_PARALLEL``.
    """
    try:
        experiment = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    return experiment(seed, quick, parallel)
