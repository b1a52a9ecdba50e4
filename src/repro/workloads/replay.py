"""Trace replay: re-drive a recorded operation stream against a new design.

The what-if workflow the paper's conclusions invite: record a measurement
window (or parse a production log into :class:`TraceRecord`s), then
replay the *same* operation arrivals against a modified control plane —
more op threads, database batching, different lock granularity — and
compare what the tenants would have seen.

Replay preserves each record's **submission time and operation type**;
concrete targets (which VM to power on, where to place a clone) are
re-chosen against the replay infrastructure, since entity identities
don't transfer across configurations.
"""

from __future__ import annotations

import typing

from repro.controlplane.costs import ControlPlaneConfig, ControlPlaneCosts, DEFAULT_COSTS
from repro.operations.base import OperationType
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams
from repro.traces.records import TraceRecord
from repro.workloads.driver import WorkloadDriver
from repro.workloads.profiles import CloudProfile


class TraceReplayer(WorkloadDriver):
    """A driver that walks a recorded trace instead of sampling arrivals."""

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        profile: CloudProfile,
        trace: typing.Sequence[TraceRecord],
        costs: ControlPlaneCosts = DEFAULT_COSTS,
        config: ControlPlaneConfig | None = None,
    ) -> None:
        super().__init__(sim, streams, profile, costs=costs, config=config)
        if not trace:
            raise ValueError("cannot replay an empty trace")
        self.source_trace = sorted(trace, key=lambda record: record.submitted_at)
        self.replayed = 0
        self.unsupported: dict[str, int] = {}

    def run(self, duration: float | None = None) -> None:
        """Replay records submitted within [0, duration); defaults to all."""
        horizon = duration
        if horizon is None:
            horizon = self.source_trace[-1].submitted_at + 1.0
        if horizon <= 0:
            raise ValueError("duration must be positive")
        self._stopped = False
        self.sim.spawn(self._replay_loop(horizon), name="replay")
        self.sim.run(until=self.sim.now + horizon)
        self._stopped = True
        self.sim.run()

    def _replay_loop(self, horizon: float) -> typing.Generator:
        origin = self.sim.now
        for record in self.source_trace:
            if record.submitted_at >= horizon:
                return
            target_time = origin + record.submitted_at
            if target_time > self.sim.now:
                yield self.sim.timeout(target_time - self.sim.now)
            try:
                op_type = OperationType(record.op_type)
            except ValueError:
                self.unsupported[record.op_type] = (
                    self.unsupported.get(record.op_type, 0) + 1
                )
                continue
            if self._issue(op_type):
                self.replayed += 1


def replay_against(
    trace: typing.Sequence[TraceRecord],
    profile: CloudProfile,
    seed: int = 0,
    duration: float | None = None,
    costs: ControlPlaneCosts = DEFAULT_COSTS,
    config: ControlPlaneConfig | None = None,
) -> TraceReplayer:
    """Convenience: build a replayer, run it, return it for analysis."""
    sim = Simulator()
    replayer = TraceReplayer(
        sim, RandomStreams(seed), profile, trace, costs=costs, config=config
    )
    replayer.run(duration)
    return replayer
