"""Copy admission control: bounds concurrent copies per datastore.

Real arrays collapse under unbounded concurrent clone streams, so
hypervisor managers cap in-flight copies per datastore. The cap is a
first-order knob in R-T3: raising it helps full clones (data-plane-bound)
and does nothing for linked clones (control-plane-bound) — one of the
paper's design implications.
"""

from __future__ import annotations

import typing

from repro.datacenter.entities import Datastore
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource
from repro.storage.copy_engine import CopyEngine
from repro.telemetry.metrics import NULL_SCOPE
from repro.tracing import NULL_SPAN, PHASE_COPY

# Default per-datastore concurrent-copy cap, matching the era's
# vCenter/VAAI guidance of a handful of simultaneous clone streams.
DEFAULT_COPY_SLOTS = 4


class CopyScheduler:
    """Admits copies onto datastores through per-datastore slot pools."""

    def __init__(
        self,
        sim: Simulator,
        engine: CopyEngine,
        slots_per_datastore: int = DEFAULT_COPY_SLOTS,
        telemetry=None,
    ) -> None:
        if slots_per_datastore < 1:
            raise ValueError("slots_per_datastore must be >= 1")
        self.sim = sim
        self.engine = engine
        self.slots_per_datastore = slots_per_datastore
        scope = telemetry if telemetry is not None else NULL_SCOPE
        self._t_queue_wait = scope.duration("queue_wait")
        self._t_copy_total = scope.duration("copy_total")
        self._slots: dict[str, Resource] = {}

    def _pool(self, datastore: Datastore) -> Resource:
        if datastore.entity_id not in self._slots:
            self._slots[datastore.entity_id] = Resource(
                self.sim,
                capacity=self.slots_per_datastore,
                name=f"copyslots:{datastore.name}",
            )
        return self._slots[datastore.entity_id]

    def queue_depth(self, datastore: Datastore) -> int:
        return self._pool(datastore).queue_depth

    def scheduled_copy(
        self,
        source: Datastore,
        destination: Datastore,
        size_gb: float,
        span=NULL_SPAN,
    ) -> typing.Generator[typing.Any, typing.Any, float]:
        """Process-style: wait for a destination slot, then copy.

        Returns total elapsed seconds including queueing. Queue wait is
        recorded separately so the bottleneck analysis can attribute it.
        The slot wait is traced under the ``copy`` phase (it is data-plane
        backpressure, not control-plane queueing) with a ``wait`` tag.
        """
        start = self.sim.now
        pool = self._pool(destination)
        request = pool.request()
        wait_span = span.child(
            "copy.slot_wait", phase=PHASE_COPY, tags={"wait": True}
        )
        yield request
        wait_span.finish()
        self._t_queue_wait.observe(self.sim.now - start)
        try:
            yield from self.engine.copy(source, destination, size_gb, span=span)
        finally:
            pool.release(request)
        total = self.sim.now - start
        self._t_copy_total.observe(total)
        return total
