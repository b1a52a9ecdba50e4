"""Scenarios: one reproducible run of a profile, with analysis attached."""

from __future__ import annotations

import dataclasses

from repro.analysis.bottleneck import plane_breakdown
from repro.analysis.latency import latency_by_type
from repro.analysis.mix import operation_counts, operation_mix
from repro.analysis.report import render_series, render_table
from repro.analysis.timeseries import arrival_rate_series
from repro.controlplane.costs import ControlPlaneConfig, ControlPlaneCosts, DEFAULT_COSTS
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams
from repro.traces.records import TraceRecord
from repro.workloads.driver import WorkloadDriver
from repro.workloads.profiles import CloudProfile


@dataclasses.dataclass
class Scenario:
    """A fully-specified run: profile + duration + seed + knobs."""

    profile: CloudProfile
    duration_s: float = 4 * 3600.0
    seed: int = 0
    costs: ControlPlaneCosts = DEFAULT_COSTS
    config: ControlPlaneConfig | None = None

    def run(self) -> "ScenarioResult":
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        sim = Simulator()
        driver = WorkloadDriver(
            sim,
            RandomStreams(self.seed),
            self.profile,
            costs=self.costs,
            config=self.config,
        )
        driver.run(self.duration_s)
        return ScenarioResult(scenario=self, driver=driver)


class ScenarioResult:
    """The outcome of one scenario run: trace, analyses and a text report."""

    def __init__(self, scenario: Scenario, driver: WorkloadDriver) -> None:
        self.scenario = scenario
        self.driver = driver
        self.server = driver.server
        self._trace: list[TraceRecord] | None = None

    @property
    def trace(self) -> list[TraceRecord]:
        if self._trace is None:
            self._trace = self.driver.trace()
        return self._trace

    # -- analysis shortcuts ---------------------------------------------------

    def operation_mix(self) -> dict[str, float]:
        return operation_mix(self.trace)

    def operation_counts(self) -> dict[str, int]:
        return operation_counts(self.trace)

    def latency_by_type(self) -> dict[str, dict[str, float]]:
        return latency_by_type(self.trace)

    def plane_breakdown(self) -> dict[str, float]:
        return plane_breakdown(self.trace)

    def arrival_series(self, bin_s: float = 300.0):
        return arrival_rate_series(self.trace, bin_s=bin_s)

    def utilization(self) -> dict[str, float]:
        return self.server.utilization_snapshot()

    def failure_rate(self) -> float:
        if not self.trace:
            return 0.0
        return sum(1 for record in self.trace if not record.success) / len(self.trace)

    def report(self) -> str:
        """The full text characterization, section per analysis."""
        sections = [
            f"=== Management-workload profile: {self.scenario.profile.name} ===",
            f"window: {self.scenario.duration_s:.0f}s  seed: {self.scenario.seed}  "
            f"operations: {len(self.trace)}  failure rate: {self.failure_rate():.1%}",
            "",
        ]
        mix_rows = sorted(
            self.operation_mix().items(), key=lambda item: -item[1]
        )
        counts = self.operation_counts()
        sections.append(
            render_table(
                ["operation", "share (%)", "count"],
                [
                    [op, f"{fraction * 100:.1f}", counts[op]]
                    for op, fraction in mix_rows
                ],
                title="Operation mix",
            )
        )
        sections.append("")
        latency_rows = [
            [op, f"{s['p50']:.2f}", f"{s['p95']:.2f}", f"{s['p99']:.2f}", s["count"]]
            for op, s in self.latency_by_type().items()
        ]
        sections.append(
            render_table(
                ["operation", "p50 (s)", "p95 (s)", "p99 (s)", "n"],
                latency_rows,
                title="Operation latency",
            )
        )
        sections.append("")
        breakdown = self.plane_breakdown()
        sections.append(
            render_table(
                ["plane", "share of wall time (%)"],
                [[plane, f"{fraction * 100:.1f}"] for plane, fraction in breakdown.items()],
                title="Plane attribution",
            )
        )
        sections.append("")
        utilization = self.utilization()
        sections.append(
            render_table(
                ["resource", "value"],
                [[key, f"{value:.3f}"] for key, value in utilization.items()],
                title="Control-plane utilization",
            )
        )
        series = self.arrival_series()
        if series:
            sections.append("")
            sections.append(
                render_series(
                    "Arrival rate", series, x_name="t (s)", y_name="ops/s"
                )
            )
        return "\n".join(sections)
