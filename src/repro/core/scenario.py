"""Scenarios: one reproducible run of a profile, with analysis attached."""

from __future__ import annotations

import dataclasses

from repro.analysis.bottleneck import plane_breakdown, plane_breakdown_by_type
from repro.analysis.latency import latency_by_type, latency_stats
from repro.analysis.mix import operation_counts, operation_mix
from repro.analysis.timeseries import arrival_rate_series
from repro.controlplane.costs import ControlPlaneConfig, ControlPlaneCosts, DEFAULT_COSTS
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams
from repro.traces.records import TraceRecord
from repro.workloads.driver import WorkloadDriver
from repro.workloads.profiles import CloudProfile


@dataclasses.dataclass
class Scenario:
    """A fully-specified run: profile + duration + seed + knobs.

    ``stats_interval_s``/``stats_level`` optionally run the always-on
    statistics-collection load alongside the workload (off by default so
    headline exhibits isolate the operation stream; R-X2 studies the
    interaction explicitly).
    """

    profile: CloudProfile
    duration_s: float = 4 * 3600.0
    seed: int = 0
    costs: ControlPlaneCosts = DEFAULT_COSTS
    config: ControlPlaneConfig | None = None
    stats_interval_s: float | None = None
    stats_level: int = 1

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
        if self.stats_interval_s is not None:
            from repro.controlplane.stats_sync import StatsCollector

            collector = StatsCollector(
                driver.server,
                interval_s=self.stats_interval_s,
                level=self.stats_level,
            )
            collector.start(until=self.duration_s)
        driver.run(self.duration_s)
        return ScenarioResult(scenario=self, driver=driver)


class ScenarioResult:
    """The outcome of one scenario run: trace plus analysis accessors."""

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

    def latency_stats(self) -> dict[str, float]:
        return latency_stats(self.trace)

    def latency_by_type(self) -> dict[str, dict[str, float]]:
        return latency_by_type(self.trace)

    def plane_breakdown(self) -> dict[str, float]:
        return plane_breakdown(self.trace)

    def plane_breakdown_by_type(self) -> dict[str, dict[str, float]]:
        return plane_breakdown_by_type(self.trace)

    def arrival_series(self, bin_s: float = 300.0):
        return arrival_rate_series(self.trace, bin_s=bin_s)

    def utilization(self) -> dict[str, float]:
        return self.server.utilization_snapshot()

    def queue_depth_series(self) -> list[tuple[float, float]]:
        return self.server.tasks.queue_depth_series()

    def failure_rate(self) -> float:
        if not self.trace:
            return 0.0
        return sum(1 for record in self.trace if not record.success) / len(self.trace)

    def throughput(self) -> float:
        """Completed operations per second over the full run."""
        if self.server.sim.now <= 0:
            return 0.0
        return len(self.trace) / self.server.sim.now
