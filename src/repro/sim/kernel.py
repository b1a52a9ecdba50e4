"""The simulation kernel: event loop and process management.

Processes are Python generators that yield :class:`~repro.sim.events.Event`
instances; the kernel resumes them when the event fires. Determinism is
guaranteed by a strict (time, sequence) ordering of dispatch: two runs
with the same seed produce identical schedules.

The schedule
------------

Every scheduled entry takes the next sequence number and is held in one
of two places:

- a ``deque`` of entries due at ``now``, in sequence order;
- a ``heapq`` heap of :class:`~repro.sim.events.Tick` s for later ones. A
  tick is a float (the due time) carrying the sequence number and the
  entry, so the heap compares C floats.

The FIFO always runs first: everything on it is due now, and everything
on the heap is due later. When it is empty the loop pops the earliest
tick and advances ``now`` to it. If further ticks share that time, all of
them are popped, sorted by sequence and moved onto the (empty) FIFO;
anything scheduled for ``now`` afterwards has a larger sequence number
and is appended behind them. Dispatch is therefore in exact ``(time,
sequence)`` order.

Fast path
---------

Same-tick resumes — process bootstrap on ``spawn()``, a yield of an
already-processed event, and ``interrupt()`` — do not allocate relay
:class:`Event` objects. They go on the due-now FIFO as
:class:`~repro.sim.events.Call` s, with the sequence number the relay
event would have taken, so the schedule is bit-identical to the old
relay-event kernel (``tests/sim/test_fastpath.py`` pins logs recorded on
it). Zero-delay grants and process completions land on the same FIFO.

Queue hygiene: cancelling a scheduled event (fair-share links do this on
every membership change) leaves a dead entry. Dead heads are dropped when
the loop reaches them, and when dead entries outnumber live ones both the
heap and the FIFO are compacted in place, so cancel-heavy runs keep a
bounded queue.

Standing timers that nothing waits on or cancels skip the :class:`Event`:
:meth:`Simulator.call_later` schedules a shared :class:`~repro.sim.events.Call`,
which the loop runs like any triggered event, for one tick per timer.

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
from operator import attrgetter

from repro.sim.events import (
    CANCELLED,
    PENDING,
    PROCESSED,
    TRIGGERED,
    Call,
    Event,
    EventCancelled,
    Tick,
    Timeout,
)

ProcessGenerator = typing.Generator[Event, typing.Any, typing.Any]

_INF = float("inf")
_by_seq = attrgetter("seq")


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
        # Kick off at the current time, on the due-now FIFO, so spawn order
        # is preserved.
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
        #: Ticks of entries due after ``now``; see the module docstring.
        self._heap: list[Tick] = []
        #: Entries due at ``now``, in sequence order.
        self._due: deque[Event | Call] = deque()
        self._sequence = 0
        self._spawned = 0
        #: Cancelled entries still on the heap or the FIFO.
        self._dead = 0
        # Fired timeouts nothing else references (Timeout._run_callbacks).
        self._timeout_pool: list[Timeout] = []

    @property
    def queue_depth(self) -> int:
        """Scheduled entries, live and dead — bounded by queue hygiene."""
        return len(self._heap) + len(self._due)

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
            if not delay >= 0:
                raise ValueError(f"negative or NaN delay {delay!r}")
            timeout = pool.pop()
            # Recycled timeouts arrive with a fresh empty callback list and
            # cleared name/value/exception slots; only re-arm the rest.
            # call_later is inlined: this is the hottest allocation path in
            # the simulator and the extra call is measurable.
            timeout._state = TRIGGERED
            timeout._value = value
            timeout.delay = delay
            self._sequence += 1
            now = self.now
            when = now + delay
            if when == now:
                self._due.append(timeout)
            else:
                tick = Tick(when)
                tick.seq = self._sequence
                tick.entry = timeout
                heappush(self._heap, tick)
            return timeout
        return Timeout(self, delay, value=value)

    def call_later(self, delay: float, call: Call | Event) -> None:
        """Run ``call`` ``delay`` seconds from now: one queue entry and one
        sequence number, like :meth:`timeout`, and no other allocation.

        ``call`` is a :class:`Call`, or a triggered :class:`Event` (as
        :meth:`Event.fail` schedules itself). An entry due now goes on the
        due-now FIFO, a later one onto the heap as a :class:`Tick`.
        """
        if not delay >= 0:
            raise ValueError(f"negative or NaN delay {delay!r}")
        self._sequence += 1
        now = self.now
        when = now + delay
        if when == now:
            self._due.append(call)
        else:
            tick = Tick(when)
            tick.seq = self._sequence
            tick.entry = call
            heappush(self._heap, tick)

    def spawn(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a process at the current simulated time."""
        self._spawned += 1
        return Process(self, generator, name=name or f"proc-{self._spawned}")

    # -- scheduling ---------------------------------------------------------

    def _defer(self, fn: typing.Callable[[], None]) -> None:
        """Schedule a same-tick kernel resume without an Event allocation.

        The entry takes the sequence number the equivalent relay event
        would have had, and joins the due-now FIFO behind every entry
        with a smaller one, so dispatch order is unchanged.
        """
        self._sequence += 1
        self._due.append(Call(fn))

    def _note_cancelled(self) -> None:
        """A scheduled queue entry died; compact when the dead dominate."""
        self._dead += 1
        if self._dead >= 64 and self._dead * 2 >= self.queue_depth:
            # In-place so loops holding a reference to either queue stay valid.
            heap = self._heap
            heap[:] = [tick for tick in heap if tick.entry._state != CANCELLED]
            heapify(heap)
            due = self._due
            live = [entry for entry in due if entry._state != CANCELLED]
            due.clear()
            due.extend(live)
            self._dead = 0

    def _prune(self) -> None:
        """Drop cancelled entries at the head of the FIFO and the heap."""
        due = self._due
        while due and due[0]._state == CANCELLED:
            due.popleft()
            self._dead -= 1
        heap = self._heap
        while heap and heap[0].entry._state == CANCELLED:
            heappop(heap)
            self._dead -= 1

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        self._prune()
        if self._due:
            return self.now
        heap = self._heap
        return float(heap[0]) if heap else _INF

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
        # the simulator's innermost loop, so the queues and their methods
        # are bound locally.
        heap = self._heap
        due = self._due
        popleft = due.popleft
        pop = heappop
        to_float = float
        while True:
            if target is not None and target._state == PROCESSED:
                return target.value
            if due:
                # Due now, so ahead of every tick; ``now`` is already set.
                entry = popleft()
                if entry._state == CANCELLED:
                    self._dead -= 1
                    continue
                entry._run_callbacks()
                continue
            if not heap:
                if target is not None:
                    raise RuntimeError(
                        f"simulation ran dry before {target!r} fired (deadlock?)"
                    )
                break
            tick = pop(heap)
            entry = tick.entry
            if entry._state == CANCELLED:
                self._dead -= 1
                continue
            if horizon is not None and tick > horizon:
                # Not yet due: put it back and stop at the horizon.
                heappush(heap, tick)
                break
            self.now = to_float(tick)
            if heap and heap[0] == tick:
                # A tie: move every tick due at this time onto the FIFO,
                # which is empty, in sequence order.
                ties = [tick]
                while heap and heap[0] == tick:
                    ties.append(pop(heap))
                ties.sort(key=_by_seq)
                due.extend([tied.entry for tied in ties])
                # Drop the ticks now, so no tick keeps an entry referenced
                # while it runs (the Timeout pool's recycle check counts).
                del ties, tick
                continue
            # Drop the tick before dispatch, for the same reason.
            del tick
            entry._run_callbacks()
        if horizon is not None:
            self.now = horizon
        return None
