"""The headline API: profile the management workload of a cloud setup.

This is the reproduction of what the paper *is*: a characterization
harness. Point it at a cloud profile, run a measurement window, and it
returns the analyses the paper reports — operation mix, latency
distributions, arrival dynamics, and control-vs-data plane attribution.
"""

from __future__ import annotations

from repro.analysis.report import render_series, render_table
from repro.controlplane.costs import ControlPlaneConfig, ControlPlaneCosts, DEFAULT_COSTS
from repro.core.scenario import Scenario, ScenarioResult
from repro.workloads.profiles import CloudProfile


class ProfileResult(ScenarioResult):
    """ScenarioResult plus a formatted characterization report."""

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
        sections.append(
            render_table(
                ["operation", "share (%)", "count"],
                [
                    [op, f"{fraction * 100:.1f}", self.operation_counts()[op]]
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


class CloudManagementProfiler:
    """Characterize the management workload a cloud profile induces."""

    def __init__(
        self,
        profile: CloudProfile,
        seed: int = 0,
        costs: ControlPlaneCosts = DEFAULT_COSTS,
        config: ControlPlaneConfig | None = None,
    ) -> None:
        self.profile = profile
        self.seed = seed
        self.costs = costs
        self.config = config

    def run(self, duration: float = 4 * 3600.0) -> ProfileResult:
        """Run one measurement window and return its analyses."""
        scenario = Scenario(
            profile=self.profile,
            duration_s=duration,
            seed=self.seed,
            costs=self.costs,
            config=self.config,
        )
        result = scenario.run()
        return ProfileResult(scenario=scenario, driver=result.driver)
