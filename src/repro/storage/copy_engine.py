"""The copy engine: moves disk bytes between datastores.

Cost model: a copy is charged to the *destination* datastore's link (write
bandwidth dominates clone traffic on real arrays; reads of a hot golden
image are largely cache hits). Source-side read bytes are still counted in
the engine's statistics so R-F4 can report total data-plane traffic.
"""

from __future__ import annotations

import random
import typing

from repro.datacenter.entities import Datastore
from repro.faults.errors import TransientError
from repro.faults.hooks import FaultHook
from repro.sim.kernel import Simulator
from repro.sim.stats import MetricsRegistry
from repro.storage.bandwidth import FairShareLink
from repro.tracing import NULL_SPAN, PHASE_COPY

GB = 1024.0**3


class CopyFailed(TransientError):
    """Raised when a copy is aborted by failure injection or an outage."""


class CopyEngine:
    """Executes byte-level copies over per-datastore fair-share links."""

    def __init__(
        self,
        sim: Simulator,
        default_capacity_bps: float = 200 * 1024 * 1024,
        metrics: MetricsRegistry | None = None,
        rng: random.Random | None = None,
    ) -> None:
        """``default_capacity_bps`` defaults to ~200 MB/s effective per
        datastore — mid-range FC/iSCSI array bandwidth of the paper's era."""
        self.sim = sim
        self.default_capacity_bps = default_capacity_bps
        self.metrics = metrics or MetricsRegistry(sim, prefix="copy")
        self._links: dict[str, FairShareLink] = {}
        self.faults = FaultHook(sim, name="copy", rng=rng, error_factory=CopyFailed)

    def link_for(self, datastore: Datastore) -> FairShareLink:
        if datastore.entity_id not in self._links:
            self._links[datastore.entity_id] = FairShareLink(
                self.sim, self.default_capacity_bps, name=f"link:{datastore.name}"
            )
        return self._links[datastore.entity_id]

    def inject_failure(self, error: Exception | None = None) -> None:
        """Make the next copy fail (failure-injection tests)."""
        self.faults.arm_once(error or CopyFailed("injected copy failure"))

    def copy(
        self,
        source: Datastore,
        destination: Datastore,
        size_gb: float,
        span=NULL_SPAN,
    ) -> typing.Generator[typing.Any, typing.Any, float]:
        """Process-style: copy ``size_gb`` and return the elapsed seconds.

        Allocates space on ``destination`` before moving bytes and releases
        it again on failure, so failed clones don't leak capacity.
        """
        # Keyed by destination: a datastore outage fails copies *into* it.
        # Per-destination attempt/failure counters let triage tell an
        # outage (one datastore fails everything) from flakiness (partial
        # failures across datastores).
        self.metrics.counter(f"attempts.{destination.name}").add()
        try:
            self.faults.fire(key=destination.entity_id)
        except Exception:
            self.metrics.counter("failures").add()
            self.metrics.counter(f"failures.{destination.name}").add()
            raise
        start = self.sim.now
        transfer_span = span.child(
            "copy.transfer",
            phase=PHASE_COPY,
            tags={"size_gb": size_gb, "destination": destination.name},
        )
        destination.allocate(size_gb)
        try:
            yield self.link_for(destination).transfer(size_gb * GB)
        except BaseException as exc:
            destination.reclaim(size_gb)
            self.metrics.counter("failures").add()
            self.metrics.counter(f"failures.{destination.name}").add()
            transfer_span.finish(error=type(exc).__name__)
            raise
        transfer_span.finish()
        elapsed = self.sim.now - start
        self.metrics.counter("bytes_written").add(size_gb * GB)
        self.metrics.counter("bytes_read").add(size_gb * GB)
        self.metrics.counter("copies").add()
        self.metrics.latency("copy_seconds").record(elapsed)
        return elapsed

    @property
    def total_bytes_written(self) -> float:
        return self.metrics.counter("bytes_written").value
