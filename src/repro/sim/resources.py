"""Shared resources: capacity-limited servers and rate limiters.

These are the queueing primitives the control-plane model is built from:
per-host operation slots, the management-server thread pool, database
connections, datastore copy slots and the task-dispatch queue are all
:class:`Resource` instances.
"""

from __future__ import annotations

import typing
from heapq import heapify, heappop, heappush

from repro.sim.events import PENDING, Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Request(Event):
    """A pending claim on a :class:`Resource`.

    Fires (succeeds) once capacity is granted. May be ``withdraw()``-n while
    still queued — used to implement request timeouts.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        # Inlined Event.__init__, as Timeout's is: every control-plane wait
        # builds one.
        self.sim = resource.sim
        self._name = None
        self.callbacks = []
        self._state = PENDING
        self._value = None
        self._exception = None
        self.resource = resource

    def _default_name(self) -> str:
        return f"request:{self.resource.name}"

    def withdraw(self) -> None:
        """Remove this request from the resource queue before it is granted."""
        self.resource._withdraw(self)


class Resource:
    """A server with fixed integer capacity.

    Waiting requests are granted lowest ``priority`` first, ties in arrival
    order, so callers that pass no priority get FCFS. The task manager
    passes one: interactive operations overtake (in ordering, not service)
    bulk provisioning.

    Usage from a process::

        request = resource.request()
        yield request
        try:
            ...  # hold the slot
        finally:
            resource.release(request)

    A request that finds a free slot and nobody waiting is granted at once
    and never touches the queue. Queued requests sit on a heap of
    ``(priority, arrival, request)`` entries; a withdrawn one is taken off
    it at once.
    """

    def __init__(self, sim: "Simulator", capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._users: set[Request] = set()
        self._queue: list[tuple[float, int, Request]] = []
        self._arrivals = 0

    # -- introspection -----------------------------------------------------

    @property
    def in_use(self) -> int:
        return len(self._users)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # -- protocol ----------------------------------------------------------

    def request(self, priority: float = 0.0) -> Request:
        request = Request(self)
        users = self._users
        if not self._queue and len(users) < self.capacity:
            users.add(request)
            # No value: a request holding itself would be a reference
            # cycle that only the cyclic collector frees.
            request.succeed()
        else:
            self._arrivals += 1
            heappush(self._queue, (priority, self._arrivals, request))
        return request

    def release(self, request: Request) -> None:
        users = self._users
        if request not in users:
            raise RuntimeError(f"release of non-held request on {self.name!r}")
        users.discard(request)
        if self._queue:
            self._dispatch()

    # -- internals -----------------------------------------------------------

    def _dispatch(self) -> None:
        queue = self._queue
        users = self._users
        while queue and len(users) < self.capacity:
            request = heappop(queue)[2]
            users.add(request)
            request.succeed()

    def _withdraw(self, request: Request) -> None:
        if request._state == PENDING:
            # Pending means queued: a grant triggers the request at once.
            self._queue = [entry for entry in self._queue if entry[2] is not request]
            heapify(self._queue)
            request.cancel()
        elif request in self._users:
            raise RuntimeError("cannot withdraw a granted request; release it")


class TokenBucket:
    """A rate limiter: ``take(n)`` blocks until n tokens have accrued.

    Tokens accrue continuously at ``rate`` per second up to ``burst``.
    Used to model API admission throttling at the cloud director.
    """

    def __init__(
        self,
        sim: "Simulator",
        rate: float,
        burst: float,
        name: str = "bucket",
    ) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.sim = sim
        self.rate = rate
        self.burst = burst
        self.name = name
        self._tokens = burst
        self._stamp = sim.now
        self._turn: Event | None = None  # serializes takers FCFS

    def _accrue(self) -> None:
        elapsed = self.sim.now - self._stamp
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._stamp = self.sim.now

    def take(self, amount: float = 1.0) -> typing.Generator[Event, typing.Any, None]:
        """Process-style helper: ``yield from bucket.take(n)``."""
        if amount > self.burst:
            raise ValueError(f"take({amount}) exceeds burst {self.burst}")
        while True:
            self._accrue()
            # Nanotoken tolerance: accrual arithmetic can leave the balance
            # a few ulp short of the target, and waiting that deficit out
            # schedules a delay smaller than the clock's resolution —
            # time would stop advancing and the loop would spin forever.
            if self._tokens + 1e-9 >= amount:
                self._tokens = max(0.0, self._tokens - amount)
                return
            deficit = amount - self._tokens
            yield self.sim.timeout(deficit / self.rate)
