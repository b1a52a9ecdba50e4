"""The simulation kernel: event loop and process management.

Processes are Python generators that yield :class:`~repro.sim.events.Event`
instances; the kernel resumes them when the event fires. Determinism is
guaranteed by a strict (time, sequence) ordering on the event heap:
two runs with the same seed produce identical schedules.

Fast path
---------

Same-tick resumes — process bootstrap on ``spawn()``, a yield of an
already-processed event, and ``interrupt()`` — do not allocate relay
:class:`Event` objects. They go on an *urgent* FIFO of ``(time, sequence,
callable)`` entries that the loop drains against the heap using the exact
same ``(time, sequence)`` total order the relay events would have had,
so the schedule is bit-identical to the old relay-event kernel
(``tests/sim/test_fastpath.py`` pins logs recorded on it).

Heap hygiene: cancelling a scheduled event (fair-share links do this on
every membership change) leaves a dead heap entry. Dead heads are dropped
on the single shared scan in :meth:`Simulator._prune`, and when dead
entries outnumber live ones the heap is compacted in place, so cancel-heavy
runs keep a bounded heap.

One queue
---------

The schedule is a single inlined ``heapq`` binary heap of ``(time,
sequence, event)`` entries. Sequence numbers are unique across the heap
and the urgent FIFO, so no comparison ever reaches the event. It is the
only event queue: every exhibit and test runs on it, so there is one
code path to keep deterministic (``docs/performance.md`` records the
measurements behind that choice).

Standing timers that nothing waits on or cancels skip the :class:`Event`:
:meth:`Simulator.call_later` pushes a shared :class:`~repro.sim.events.Call`,
which the loop runs like any triggered event, for one heap tuple per timer.

Timeouts are pooled: a fired :class:`Timeout` that nothing else references
is recycled onto a per-simulator free list and reused by
:meth:`Simulator.timeout` (see ``docs/performance.md`` for the lifecycle
rules). There is one kernel: pooling never affects sequence numbering,
and interpreters other than CPython simply never recycle.
"""

from __future__ import annotations

import typing
from collections import deque
from heapq import heapify, heappop, heappush

from repro.sim.events import (
    CANCELLED,
    PENDING,
    PROCESSED,
    TRIGGERED,
    Call,
    Event,
    EventCancelled,
    Timeout,
)

ProcessGenerator = typing.Generator[Event, typing.Any, typing.Any]

_INF = float("inf")


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` is whatever the interrupter supplied — typically an
    exception or a short string describing the failure being injected.
    """

    def __init__(self, cause: typing.Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running activity; also an event that fires when the activity ends.

    The process's success value is the generator's return value; an uncaught
    exception inside the generator fails the process event with it.
    """

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = "") -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"process body must be a generator, got {type(generator).__name__}")
        self.sim = sim
        self._name = name or None
        self.callbacks = []
        self._state = PENDING
        self._value = None
        self._exception = None
        self._generator = generator
        self._waiting_on: Event | None = None
        # Kick off at the current time, urgently, so spawn order is preserved.
        sim._defer(self._bootstrap)

    def _default_name(self) -> str:
        return getattr(self._generator, "__name__", "process")

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: typing.Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is a no-op error; interrupting a
        process blocked on an event detaches it from that event first.
        """
        if self.triggered:
            raise RuntimeError(f"cannot interrupt finished process {self.name!r}")
        self.sim._defer(lambda: self._throw_in(Interrupt(cause)))

    # -- internals --------------------------------------------------------

    def _bootstrap(self) -> None:
        self._step(None, None)

    def _detach(self) -> None:
        if self._waiting_on is not None and self._resume in self._waiting_on.callbacks:
            self._waiting_on.callbacks.remove(self._resume)
        self._waiting_on = None

    def _throw_in(self, exc: BaseException) -> None:
        if self.triggered:
            return
        waited = self._waiting_on
        self._detach()
        # Withdrawable waits (resource requests) must not leak: a process
        # interrupted while queued would otherwise hold its place in line
        # forever; one granted in the same tick would hold the slot itself.
        if waited is not None and hasattr(waited, "withdraw"):
            if not waited.triggered:
                waited.withdraw()
            else:
                resource = getattr(waited, "resource", None)
                if resource is not None:
                    resource.release(waited)
        self._step(None, exc)

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        if event._state == CANCELLED:
            self._step(None, EventCancelled(event.name))
        else:
            self._step(event._value, event._exception)

    def _deferred_resume(self, target: Event) -> None:
        # Guards the same-tick resume of an already-processed yield: an
        # interrupt (or a further yield) between scheduling and draining
        # retargets or finishes the process, making this entry stale.
        if self._waiting_on is target:
            self._resume(target)

    def _step(self, value: typing.Any, exc: BaseException | None) -> None:
        """Advance the generator: send ``value``, or throw ``exc`` if set."""
        try:
            if exc is None:
                target = self._generator.send(value)
            else:
                target = self._generator.throw(exc)
        except StopIteration as stop:
            self.succeed(value=stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - process bodies may raise anything
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self.fail(
                TypeError(
                    f"process {self.name!r} yielded {target!r}; processes must yield Events"
                )
            )
            return
        if target.sim is not self.sim:
            self.fail(RuntimeError("yielded event belongs to a different simulator"))
            return
        self._waiting_on = target
        if target._state == PROCESSED:
            # Already fully fired: resume on the next tick of the loop.
            self.sim._defer(lambda: self._deferred_resume(target))
        else:
            target.callbacks.append(self._resume)


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    start:
        Initial simulated time (seconds by convention throughout this repo).
    """

    def __init__(self, start: float = 0.0) -> None:
        #: Current simulated time in seconds. Only the kernel writes it.
        self.now = float(start)
        self._heap: list[tuple[float, int, Event]] = []
        self._urgent: deque[tuple[float, int, typing.Callable[[], None]]] = deque()
        self._sequence = 0
        self._spawned = 0
        self._cancelled_in_heap = 0
        # Fired timeouts nothing else references (Timeout._run_callbacks).
        self._timeout_pool: list[Timeout] = []

    @property
    def queue_depth(self) -> int:
        """Scheduled entries, live and dead — bounded by queue hygiene."""
        return len(self._heap)

    # -- event construction ------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: typing.Any = None) -> Timeout:
        """An event that fires ``delay`` simulated seconds from now.

        Reuses a recycled :class:`Timeout` from the pool when one is
        available; see :meth:`Timeout._run_callbacks` for the recycle rules.
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative delay {delay!r}")
            timeout = pool.pop()
            # Recycled timeouts arrive with a fresh empty callback list and
            # cleared name/value/exception slots; only re-arm the rest.
            # The enqueue is inlined: this is the hottest allocation path in
            # the simulator and the extra call is measurable.
            timeout._state = TRIGGERED
            timeout._value = value
            timeout.delay = delay
            self._sequence += 1
            heappush(self._heap, (self.now + delay, self._sequence, timeout))
            return timeout
        return Timeout(self, delay, value=value)

    def call_later(self, delay: float, call: Call) -> None:
        """Run ``call.fn()`` ``delay`` seconds from now: one heap entry and one
        sequence number, like :meth:`timeout`, and no allocation beyond them."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._sequence += 1
        heappush(self._heap, (self.now + delay, self._sequence, call))

    def spawn(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a process at the current simulated time."""
        self._spawned += 1
        return Process(self, generator, name=name or f"proc-{self._spawned}")

    # -- scheduling ---------------------------------------------------------

    def _defer(self, fn: typing.Callable[[], None]) -> None:
        """Schedule a same-tick kernel resume without an Event allocation.

        Entries carry the ``(time, sequence)`` the equivalent relay event
        would have had, so the drain order against the heap is unchanged.
        Time never moves backwards, so the FIFO is sorted by construction.
        """
        self._sequence += 1
        self._urgent.append((self.now, self._sequence, fn))

    def _note_cancelled(self) -> None:
        """A scheduled queue entry died; compact when the dead dominate."""
        self._cancelled_in_heap += 1
        if self._cancelled_in_heap >= 64 and self._cancelled_in_heap * 2 >= len(self._heap):
            # In-place so loops holding a reference to the heap stay valid.
            self._heap[:] = [
                entry for entry in self._heap if entry[2]._state != CANCELLED
            ]
            heapify(self._heap)
            self._cancelled_in_heap = 0

    def _prune(self) -> None:
        """Drop cancelled heads — the single cancelled-event scan."""
        heap = self._heap
        while heap and heap[0][2]._state == CANCELLED:
            heappop(heap)
            self._cancelled_in_heap -= 1

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        self._prune()
        heap = self._heap
        head_time = heap[0][0] if heap else _INF
        if self._urgent:
            urgent_time = self._urgent[0][0]
            if urgent_time < head_time:
                return urgent_time
        return head_time

    def run(self, until: float | Event | None = None) -> typing.Any:
        """Run the event loop.

        ``until`` may be:

        - ``None`` — run until no events remain;
        - a number — run until simulated time reaches it;
        - an :class:`Event` — run until that event fires, returning its value
          (or raising its failure).
        """
        target: Event | None = None
        horizon: float | None = None
        if isinstance(until, Event):
            target = until
        elif until is not None:
            horizon = float(until)
            if horizon < self.now:
                raise ValueError(f"until={horizon} is in the past (now={self.now})")
        # One inlined drain loop for all three modes: per-event dispatch is
        # the simulator's innermost loop, so heap/urgent/method lookups are
        # bound locally and the cancelled scan happens exactly once per
        # iteration (in the shared prune below).
        heap = self._heap
        urgent = self._urgent
        pop = heappop
        while True:
            if target is not None and target._state == PROCESSED:
                return target.value
            while heap and heap[0][2]._state == CANCELLED:
                pop(heap)
                self._cancelled_in_heap -= 1
            if urgent:
                entry = urgent[0]
                # (time, sequence, fn) against (time, sequence, event): the
                # sequences differ, so the tuples compare on those two alone.
                if not heap or entry < heap[0]:
                    when = entry[0]
                    if horizon is not None and when > horizon:
                        break
                    urgent.popleft()
                    self.now = when
                    entry[2]()
                    continue
            elif not heap:
                if target is not None:
                    raise RuntimeError(
                        f"simulation ran dry before {target!r} fired (deadlock?)"
                    )
                break
            when, _seq, event = pop(heap)
            if horizon is not None and when > horizon:
                # Not yet due: put it back and stop at the horizon.
                heappush(heap, (when, _seq, event))
                break
            self.now = when
            event._run_callbacks()
        if horizon is not None:
            self.now = horizon
        return None
