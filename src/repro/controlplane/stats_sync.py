"""Periodic statistics collection: the control plane's always-on load.

The ISCA'10 companion study highlighted that even an *idle* virtualized
datacenter keeps its management server busy: every host is polled for
performance statistics on a fixed cadence and the samples are rolled into
the database. That baseline consumes exactly the resources provisioning
storms need — so a larger inventory leaves less control-plane headroom
for the cloud workload. The ``stats level`` knob (how many counters are
collected) was the era's standard mitigation.
"""

from __future__ import annotations

import typing

from repro.controlplane.server import ManagementServer

# Rows written per host per collection cycle at each stats level
# (vCenter levels 1-4: each level roughly triples the counter set).
ROWS_PER_LEVEL = {1: 1, 2: 3, 3: 9, 4: 27}

# Host-agent stats pull service time (seconds, median).
PULL_MEDIAN_S = 0.25


class StatsCollector:
    """Polls every adopted host on a cadence and persists samples."""

    def __init__(
        self,
        server: ManagementServer,
        interval_s: float = 20.0,
        level: int = 1,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if level not in ROWS_PER_LEVEL:
            raise ValueError(f"stats level must be one of {sorted(ROWS_PER_LEVEL)}")
        self.server = server
        self.interval_s = interval_s
        self.level = level
        # The stats pipeline is itself a scrape target: its rows/cycles
        # counters become per-window rates in the telemetry roll-ups
        # (R-X2 reads the modeled stats load through this path).
        scope = server.telemetry.scope(f"{server.name}.stats", component="statsd")
        self._t_pull_errors = scope.counter("pull_errors")
        self._t_cycles = scope.counter("cycles")
        self._t_rows = scope.counter("rows")
        self._until: float | None = None
        self._running = False

    @property
    def rows_per_cycle_per_host(self) -> int:
        return ROWS_PER_LEVEL[self.level]

    def start(self, until: float | None = None) -> None:
        """Begin collection; bounded by ``until`` if given."""
        if self._running:
            raise RuntimeError("stats collector already started")
        self._running = True
        self._until = until
        self.server.sim.spawn(self._loop(), name=f"{self.server.name}:stats")

    def stop(self) -> None:
        self._until = self.server.sim.now

    def _loop(self) -> typing.Generator:
        sim = self.server.sim
        while True:
            yield sim.timeout(self.interval_s)
            if self._until is not None and sim.now >= self._until:
                return
            for agent in self.server.agents:
                if not agent.host.is_usable:
                    continue
                sim.spawn(self._collect_one(agent), name="stats-pull")

    def _collect_one(self, agent) -> typing.Generator:
        try:
            yield from agent.call("stats_pull", PULL_MEDIAN_S)
        except Exception:
            self._t_pull_errors.add()
            return
        yield from self.server.database.write(rows=self.rows_per_cycle_per_host)
        self._t_cycles.add()
        self._t_rows.add(self.rows_per_cycle_per_host)
