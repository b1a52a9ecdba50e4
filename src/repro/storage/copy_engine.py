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
from repro.sim.stats import CounterView
from repro.storage.bandwidth import FairShareLink
from repro.telemetry.metrics import NULL_SCOPE
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
        rng: random.Random | None = None,
        telemetry=None,
    ) -> None:
        """``default_capacity_bps`` defaults to ~200 MB/s effective per
        datastore — mid-range FC/iSCSI array bandwidth of the paper's era."""
        self.sim = sim
        self.default_capacity_bps = default_capacity_bps
        # Completed and failed copies, and bytes landed on destinations.
        self.copies = 0
        self.failures = 0
        self.total_bytes_written = 0.0
        # perfbench/workloads.py reads ``metrics.counter("copies")`` and
        # ``("failures")``; this read-only view over the attributes keeps
        # that benchmark's reads working.
        self.metrics = CounterView(self)
        # Ids under the server's scope (``vc-1.copy.copies``); the
        # per-destination ones are made at a datastore's first copy.
        self._scope = scope = telemetry if telemetry is not None else NULL_SCOPE
        self._t_failures = scope.counter("failures")
        self._t_bytes_written = scope.counter("bytes_written")
        self._t_bytes_read = scope.counter("bytes_read")
        self._t_copies = scope.counter("copies")
        self._t_copy_seconds = scope.duration("copy_seconds")
        # destination name -> its (attempts, failures) handles.
        self._t_by_destination: dict[str, tuple] = {}
        self._links: dict[str, FairShareLink] = {}
        self.faults = FaultHook(sim, name="copy", rng=rng, error_factory=CopyFailed)

    def link_for(self, datastore: Datastore) -> FairShareLink:
        if datastore.entity_id not in self._links:
            self._links[datastore.entity_id] = FairShareLink(
                self.sim, self.default_capacity_bps, name=f"link:{datastore.name}"
            )
        return self._links[datastore.entity_id]

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
        handles = self._t_by_destination.get(destination.name)
        if handles is None:
            handles = self._t_by_destination[destination.name] = (
                self._scope.counter(f"attempts.{destination.name}"),
                self._scope.counter(f"failures.{destination.name}"),
            )
        handles[0].add()
        if self.faults.armed:
            try:
                self.faults.fire(key=destination.entity_id)
            except Exception:
                self._fail(handles[1])
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
            self._fail(handles[1])
            transfer_span.finish(error=type(exc).__name__)
            raise
        transfer_span.finish()
        elapsed = self.sim.now - start
        self.total_bytes_written += size_gb * GB
        self.copies += 1
        self._t_bytes_written.add(size_gb * GB)
        self._t_bytes_read.add(size_gb * GB)
        self._t_copies.add()
        self._t_copy_seconds.observe(elapsed)
        return elapsed

    def _fail(self, destination_failures) -> None:
        self.failures += 1
        self._t_failures.add()
        destination_failures.add()
