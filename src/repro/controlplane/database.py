"""The management database: a connection pool with per-row write costs.

Every task transition and inventory mutation lands here. Under clone
storms this pool is one of the three contended control-plane resources
(with the CPU pool and host-agent slots); its utilization is a headline
series in R-F5.
"""

from __future__ import annotations

import random
import typing

from repro.faults.hooks import FaultHook
from repro.sim.kernel import Simulator
from repro.sim.random import service_time
from repro.sim.resources import Resource
from repro.telemetry.metrics import NULL_SCOPE
from repro.tracing import NULL_SPAN, PHASE_DB, PHASE_QUEUE
from repro.controlplane.costs import ControlPlaneCosts


class DatabaseModel:
    """A fixed-size connection pool executing timed reads and writes."""

    def __init__(
        self,
        sim: Simulator,
        costs: ControlPlaneCosts,
        connections: int,
        rng: random.Random,
        batching: bool = False,
        telemetry=None,
    ) -> None:
        self.sim = sim
        self.costs = costs
        self.batching = batching
        self.rng = rng
        # Rows and statement latency per kind ("reads", "writes"), under
        # the server's scope (``vc-1.db.writes``, ``vc-1.db.writes_latency``).
        scope = telemetry if telemetry is not None else NULL_SCOPE
        self._t_rows = {kind: scope.counter(kind) for kind in ("reads", "writes")}
        self._t_latency = {kind: scope.duration(f"{kind}_latency") for kind in ("reads", "writes")}
        self.pool = Resource(sim, capacity=connections, name="db-connections")
        self.faults = FaultHook(sim, name="db", rng=rng)
        self._busy_seconds = 0.0

    def write(
        self, rows: int = 1, span=NULL_SPAN
    ) -> typing.Generator[typing.Any, typing.Any, float]:
        """Process-style: write ``rows`` row-groups; returns elapsed seconds."""
        if rows < 1:
            raise ValueError("rows must be >= 1")
        per_row = self.costs.db_write_s
        if self.batching:
            per_row /= self.costs.db_batch_factor
        return (yield from self._execute(per_row * rows, "writes", rows, span))

    def read(
        self, rows: int = 1, span=NULL_SPAN
    ) -> typing.Generator[typing.Any, typing.Any, float]:
        """Process-style: read ``rows`` row-groups; returns elapsed seconds."""
        if rows < 1:
            raise ValueError("rows must be >= 1")
        return (yield from self._execute(self.costs.db_read_s * rows, "reads", rows, span))

    def _execute(
        self, median: float, kind: str, rows: int, span=NULL_SPAN
    ) -> typing.Generator[typing.Any, typing.Any, float]:
        start = self.sim.now
        traced = not span.is_null
        op_span = span.child(f"db.{kind}", phase=PHASE_DB, tags={"rows": rows}) if traced else span
        try:
            # Injected DB faults surface before any connection is consumed:
            # outages and drops fail the statement, latency windows stretch it.
            factor = self.faults.fire() if self.faults.armed else 1.0
            request = self.pool.request()
            wait_span = (
                op_span.child("db.pool_wait", phase=PHASE_QUEUE, tags={"wait": True})
                if traced
                else op_span
            )
            yield request
            wait_span.finish()
            service = service_time(self.rng, median, self.costs.sigma) * factor
            try:
                yield self.sim.timeout(service)
            finally:
                self.pool.release(request)
        except BaseException as exc:
            op_span.finish(error=type(exc).__name__)
            raise
        op_span.finish()
        self._busy_seconds += service
        self._t_rows[kind].add(rows)
        self._t_latency[kind].observe(self.sim.now - start)
        return self.sim.now - start

    def utilization(self) -> float:
        """Mean fraction of the pool busy over [0, now]."""
        span = self.sim.now
        if span <= 0:
            return 0.0
        return min(1.0, self._busy_seconds / (span * self.pool.capacity))

    @property
    def queue_depth(self) -> int:
        return self.pool.queue_depth
