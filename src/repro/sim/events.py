"""Events: the unit of coordination in the simulation kernel.

An :class:`Event` is a one-shot occurrence. Processes wait on events by
yielding them; resources and the kernel trigger them. Events carry either a
value (success) or an exception (failure), and support cancellation so that
fluid-flow models (e.g. the fair-share bandwidth link) can reschedule
completions.

Hot-path notes: events are the single most-allocated object in any run, so
the class is slotted and names are lazy — ``name`` is only formatted when a
``repr`` or error message actually needs it, never on the dispatch path.
"""

from __future__ import annotations

import sys
import typing
from heapq import heappush

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator

# Event lifecycle states.
PENDING = "pending"
TRIGGERED = "triggered"  # scheduled on the queue, value decided
PROCESSED = "processed"  # callbacks have run
CANCELLED = "cancelled"

# Timeout pooling: a fired timeout is recycled only when the kernel loop
# holds the sole remaining references. At the recycle check those are the
# loop's local, this frame's ``self``, and getrefcount's own argument — so
# exactly _POOL_REFS means "nobody else is holding this object". The trick
# is CPython-specific; other interpreters simply never pool.
_POOLABLE = sys.implementation.name == "cpython"
_POOL_REFS = 3
_POOL_LIMIT = 256
_getrefcount = getattr(sys, "getrefcount", None)


class EventCancelled(Exception):
    """Raised when waiting on an event that was cancelled."""


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    sim:
        The owning simulator.
    name:
        Optional label used in ``repr`` and error messages. Subclasses
        with a cheap derived label leave this unset and override
        :meth:`_default_name` instead, so no string is built per event.
    """

    __slots__ = ("sim", "_name", "callbacks", "_state", "_value", "_exception")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self._name = name or None
        self.callbacks: list[typing.Callable[["Event"], None]] = []
        self._state = PENDING
        self._value: typing.Any = None
        self._exception: BaseException | None = None

    # -- introspection ----------------------------------------------------

    @property
    def name(self) -> str:
        """Label for diagnostics; formatted lazily on first use."""
        name = self._name
        if name is None:
            return self._default_name()
        return name

    @name.setter
    def name(self, value: str) -> None:
        self._name = value

    def _default_name(self) -> str:
        return ""

    @property
    def triggered(self) -> bool:
        """True once the event's outcome has been decided."""
        return self._state in (TRIGGERED, PROCESSED)

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == PROCESSED

    @property
    def cancelled(self) -> bool:
        return self._state == CANCELLED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> typing.Any:
        """The success value, or raises the failure exception."""
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> BaseException | None:
        return self._exception

    # -- triggering -------------------------------------------------------

    def succeed(self, value: typing.Any = None, delay: float = 0.0) -> "Event":
        """Mark the event successful and schedule its callbacks."""
        if self._state != PENDING:
            raise RuntimeError(f"{self!r} already {self._state}")
        if not delay >= 0:
            raise ValueError(f"negative or NaN delay {delay!r}")
        self._state = TRIGGERED
        self._value = value
        # Simulator.call_later, written out: every grant and wake-up comes here.
        sim = self.sim
        sim._sequence += 1
        now = sim.now
        when = now + delay
        if when == now:
            sim._due.append(self)
        else:
            tick = Tick(when)
            tick.seq = sim._sequence
            tick.entry = self
            heappush(sim._heap, tick)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Mark the event failed; waiters will see ``exception`` raised."""
        if self._state != PENDING:
            raise RuntimeError(f"{self!r} already {self._state}")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if not delay >= 0:
            raise ValueError(f"negative or NaN delay {delay!r}")
        self._state = TRIGGERED
        self._exception = exception
        self.sim.call_later(delay, self)
        return self

    def cancel(self) -> None:
        """Cancel an event whose callbacks have not yet run.

        A cancelled event never fires its callbacks. Pending events and
        triggered-but-unprocessed events (e.g. a scheduled completion timer
        being rescheduled) may be cancelled; a processed event may not.
        A triggered event sits in the simulator's schedule, so the
        simulator is told about the dead entry for its queue-hygiene
        accounting once the event reads as cancelled (compaction drops it).
        """
        if self._state == PROCESSED:
            raise RuntimeError(f"cannot cancel {self!r}: already processed")
        scheduled = self._state == TRIGGERED
        self._state = CANCELLED
        if scheduled:
            self.sim._note_cancelled()

    # -- kernel hooks -------------------------------------------------------

    def _run_callbacks(self) -> None:
        if self._state == CANCELLED:
            return
        self._state = PROCESSED
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {self._state}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(
        self,
        sim: "Simulator",
        delay: float,
        value: typing.Any = None,
        name: str = "",
    ) -> None:
        if not delay >= 0:
            raise ValueError(f"negative or NaN delay {delay!r}")
        # Inlined Event.__init__ and Simulator.call_later: timeouts are the
        # hottest allocation in the whole simulator, and the calls are
        # measurable.
        self.sim = sim
        self._name = name or None
        self.callbacks = []
        self._state = TRIGGERED
        self._value = value
        self._exception = None
        self.delay = delay
        sim._sequence += 1
        now = sim.now
        when = now + delay
        if when == now:
            sim._due.append(self)
        else:
            tick = Tick(when)
            tick.seq = sim._sequence
            tick.entry = self
            heappush(sim._heap, tick)

    def _default_name(self) -> str:
        return f"timeout({self.delay})"

    def _run_callbacks(self) -> None:
        # Inlined Event._run_callbacks plus the pool recycle check.
        if self._state == CANCELLED:
            return
        self._state = PROCESSED
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for callback in callbacks:
                callback(self)
        # Recycle: only exact Timeout instances the kernel alone still
        # references may be reused. A timeout held by a process, condition,
        # resource, or any user structure has extra references and is left
        # alone forever — reuse can never invalidate a visible object.
        if (
            _POOLABLE
            and type(self) is Timeout
            and _getrefcount(self) == _POOL_REFS
        ):
            pool = self.sim._timeout_pool
            if len(pool) < _POOL_LIMIT:
                self._name = None
                self._value = None
                self._exception = None
                pool.append(self)


class Call:
    """A :meth:`Simulator.call_later` payload: always triggered, never waited
    on or cancelled; firing runs ``fn()``. It may be scheduled many times.

    ``fn`` is stored in the ``_run_callbacks`` slot, the name the kernel
    loop calls on every entry, so dispatch calls ``fn`` directly. The
    kernel's same-tick resumes (process bootstrap, interrupts, resumes
    after yielding a processed event) are ``Call`` s too.
    """

    __slots__ = ("_run_callbacks",)
    _state = TRIGGERED

    def __init__(self, fn: typing.Callable[[], None]) -> None:
        self._run_callbacks = fn


class Tick(float):
    """A schedule entry due later than now: its float value is the due time.

    The kernel heap holds ticks, so ``heapq`` orders them by comparing C
    floats alone. Ticks that compare equal are moved to the due-now FIFO
    together, sorted by ``seq``, so dispatch follows ``(time, seq)``.
    """

    __slots__ = ("seq", "entry")


class Condition(Event):
    """Base for events composed of other events (:class:`AllOf`/:class:`AnyOf`).

    The condition evaluates each time a constituent fires. A failing
    constituent fails the condition immediately with the same exception.
    ``_next`` is :class:`AllOf`'s scan cursor: every constituent before it
    has been processed and succeeded.
    """

    __slots__ = ("events", "_next")

    def __init__(self, sim: "Simulator", events: typing.Sequence[Event], name: str = "") -> None:
        super().__init__(sim, name=name)
        self.events = list(events)
        self._next = 0
        for event in self.events:
            if event.sim is not sim:
                raise ValueError("all constituent events must share a simulator")
        if not self.events:
            # Vacuous truth: an empty AllOf succeeds, an empty AnyOf never
            # would — but treating both as immediate success is the least
            # surprising behaviour for fan-out over possibly-empty sets.
            self.succeed(value={})
            return
        for event in self.events:
            if event.processed:
                # A processed event already ran (and cleared) its callback
                # list; appending there would leave a dead reference that
                # never fires. Fold the outcome in directly instead.
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _evaluate(self) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered or self.cancelled:
            return
        if not event.ok:
            self.fail(event.exception)  # type: ignore[arg-type]
            return
        if self._evaluate():
            self.succeed(value=self._collect())

    def _collect(self) -> dict[Event, typing.Any]:
        return {event: event._value for event in self.events if event.processed and event.ok}


class AllOf(Condition):
    """Succeeds once every constituent event has succeeded.

    A processed, successful event stays so (the condition holds it, so it
    is never recycled), so each evaluation resumes the scan at the cursor
    instead of rescanning from the head: a fan-out over N events costs
    O(N) checks in all, not O(N) per completion.
    """

    __slots__ = ()

    def _evaluate(self) -> bool:
        events = self.events
        index = self._next
        count = len(events)
        while index < count:
            event = events[index]
            if event._state != PROCESSED or event._exception is not None:
                break
            index += 1
        self._next = index
        return index == count


class AnyOf(Condition):
    """Succeeds as soon as any constituent event succeeds."""

    __slots__ = ()

    def _evaluate(self) -> bool:
        # Reached only from ``_check`` with a processed, successful event.
        return True
