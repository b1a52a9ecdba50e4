"""Fair-share (processor-sharing) bandwidth links.

A :class:`FairShareLink` models an aggregate storage pipe of fixed capacity
(bytes/second). All in-flight transfers progress simultaneously, each
receiving ``capacity / n`` while ``n`` transfers are active — the standard
fluid-flow approximation for storage arrays and uplinks. Completion events
are rescheduled whenever membership changes.
"""

from __future__ import annotations

import dataclasses

from repro.sim.events import Event
from repro.sim.kernel import Simulator


@dataclasses.dataclass(slots=True)
class Transfer:
    """An in-flight transfer on a link."""

    size_bytes: float
    remaining: float
    started_at: float
    done: Event
    finished_at: float | None = None

    @property
    def duration(self) -> float:
        if self.finished_at is None:
            raise RuntimeError("transfer not finished")
        return self.finished_at - self.started_at


class FairShareLink:
    """A capacity-C pipe shared equally among active transfers.

    Invariants (property-tested):

    - total bytes delivered never exceeds capacity × elapsed time;
    - a transfer of S bytes alone on the link takes exactly S/C seconds;
    - n equal transfers started together finish together at n·S/C.
    """

    def __init__(self, sim: Simulator, capacity_bps: float, name: str = "link") -> None:
        if capacity_bps <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity_bps = capacity_bps
        self.name = name
        self._active: list[Transfer] = []
        self._last_update = sim.now
        self._next_completion: Event | None = None
        self.bytes_delivered = 0.0
        self.transfer_count = 0
        self._busy_area = 0.0  # integral of (active>0) for utilization
        # Labels are per-link constants; formatting them per event is pure
        # hot-path waste on links that reschedule at every membership change.
        self._xfer_label = f"xfer:{name}"
        self._complete_label = f"complete:{name}"

    # -- public API -----------------------------------------------------------

    def transfer(self, size_bytes: float) -> Event:
        """Start a transfer; the returned event fires with the Transfer."""
        if size_bytes < 0:
            raise ValueError(f"negative transfer size {size_bytes}")
        done = Event(self.sim, name=self._xfer_label)
        record = Transfer(
            size_bytes=size_bytes,
            remaining=size_bytes,
            started_at=self.sim.now,
            done=done,
        )
        self.transfer_count += 1
        if size_bytes == 0:
            record.finished_at = self.sim.now
            done.succeed(value=record)
            return done
        self._advance()
        self._active.append(record)
        self._reschedule()
        return done

    def utilization(self, since: float = 0.0) -> float:
        """Fraction of [since, now] during which the link was busy."""
        self._advance()
        span = self.sim.now - since
        if span <= 0:
            return 0.0
        return min(1.0, self._busy_area / span)

    # -- fluid-flow mechanics --------------------------------------------------

    def _advance(self) -> None:
        """Apply progress accrued since the last membership change."""
        now = self.sim.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._active:
            return
        rate = self.capacity_bps / len(self._active)
        delivered = 0.0
        for transfer in self._active:
            progress = min(transfer.remaining, rate * elapsed)
            transfer.remaining -= progress
            delivered += progress
        self.bytes_delivered += delivered
        self._busy_area += elapsed
        # Residues below a part-per-billion of the transfer size are float
        # noise (a few ulp of a multi-GB size), not real work; treating
        # them as live would reschedule completions at delays that can
        # underflow to the current timestamp and spin forever.
        def _done(t: Transfer) -> bool:
            return t.remaining <= max(1e-9, 1e-9 * t.size_bytes)

        finished = [t for t in self._active if _done(t)]
        self._active = [t for t in self._active if not _done(t)]
        for transfer in finished:
            transfer.remaining = 0.0
            transfer.finished_at = now
            transfer.done.succeed(value=transfer)

    def _reschedule(self) -> None:
        """(Re)arm the completion timer for the soonest-finishing transfer."""
        stale = self._next_completion
        if stale is not None and not stale.processed and not stale.cancelled:
            stale.cancel()
        self._next_completion = None
        if not self._active:
            return
        rate = self.capacity_bps / len(self._active)
        soonest = min(transfer.remaining for transfer in self._active)
        timer = Event(self.sim, name=self._complete_label)
        timer.callbacks.append(self._on_completion)
        timer.succeed(delay=soonest / rate)
        self._next_completion = timer

    def _on_completion(self, _event: Event) -> None:
        self._next_completion = None
        self._advance()
        self._reschedule()
