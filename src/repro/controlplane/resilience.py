"""Resilience primitives: retry policies, budgets, breakers, dead letters.

These are the control plane's answer to the faults in ``repro.faults``:

- :class:`RetryPolicy` — exponential backoff with jitter, an attempt cap,
  and a transient-only error filter; applied at the task lifecycle by
  :class:`~repro.controlplane.task_manager.TaskManager` and at per-VM
  deployment by :class:`~repro.cloud.director.CloudDirector`.
- :class:`RetryBudget` — a global token bucket that bounds retry
  *volume*: every first attempt deposits ``ratio`` tokens, every retry
  withdraws one. Under a widespread outage the budget runs dry and
  retries stop amplifying load (the retry-storm failure mode R-X3
  measures).
- :class:`CircuitBreaker` — per-host-agent; opens after N consecutive
  failures so callers fail fast instead of burning a 120 s timeout per
  attempt, then admits half-open probes after a cooldown.
- :class:`DeadLetter` — the terminal record for a task that exhausted
  its retries; nothing is silently dropped.

Everything here is simulation-layer pure: no imports from
``controlplane``/``cloud`` modules, so policies can live in
:class:`~repro.controlplane.costs.ControlPlaneConfig` without cycles.
"""

from __future__ import annotations

import dataclasses
import enum
import random
import typing

from repro.faults.errors import TransientError
from repro.telemetry.metrics import NULL_SCOPE

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class TaskDeadlineExceeded(Exception):
    """A task ran past its deadline.

    Deliberately *not* a :class:`TransientError`: retrying a task that
    already blew its deadline only deepens the backlog.
    """


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter and a transient-only filter.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means one
    try plus at most two retries. ``jitter`` is the randomized fraction
    of each backoff (0 = deterministic, 1 = full jitter).
    """

    max_attempts: int = 3
    base_backoff_s: float = 1.0
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 60.0
    jitter: float = 0.5
    retry_on: tuple[type[BaseException], ...] = (TransientError,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff_s < 0:
            raise ValueError("base_backoff_s must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1.0")
        if self.max_backoff_s < self.base_backoff_s:
            raise ValueError("max_backoff_s must be >= base_backoff_s")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def retryable(self, error: BaseException) -> bool:
        return isinstance(error, self.retry_on)

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (1 = first retry)."""
        if attempt < 1:
            raise ValueError("attempt must be >= 1")
        raw = min(
            self.max_backoff_s,
            self.base_backoff_s * self.backoff_multiplier ** (attempt - 1),
        )
        return raw * (1.0 - self.jitter + self.jitter * rng.random())


#: One attempt, no retries — the pre-resilience behaviour.
NO_RETRY = RetryPolicy(max_attempts=1, base_backoff_s=0.0, max_backoff_s=0.0, jitter=0.0)


class RetryBudget:
    """Global retry-volume limiter (token bucket, Finagle-style).

    Each first attempt deposits ``ratio`` tokens (capped); each retry
    withdraws one whole token. When the bucket is dry, retries are
    denied and the failure becomes terminal — bounding retry
    amplification to ``ratio`` of offered load in steady state.
    """

    def __init__(self, ratio: float = 0.2, initial: float = 10.0, cap: float = 100.0) -> None:
        if ratio < 0:
            raise ValueError("ratio must be >= 0")
        if cap < initial:
            raise ValueError("cap must be >= initial")
        self.ratio = ratio
        self.cap = cap
        self._tokens = float(initial)
        self.denied = 0

    @property
    def tokens(self) -> float:
        return self._tokens

    def deposit(self) -> None:
        """Credit the budget for one first attempt."""
        self._tokens = min(self.cap, self._tokens + self.ratio)

    def withdraw(self) -> bool:
        """Spend one token for a retry; False when the budget is dry."""
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        self.denied += 1
        return False


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: Numeric encoding for the ``breaker_state`` gauge.
BREAKER_STATE_VALUE = {
    BreakerState.CLOSED: 0.0,
    BreakerState.HALF_OPEN: 1.0,
    BreakerState.OPEN: 2.0,
}


@dataclasses.dataclass(frozen=True)
class BreakerPolicy:
    """Knobs for a :class:`CircuitBreaker`."""

    failure_threshold: int = 5
    cooldown_s: float = 30.0
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")


class CircuitBreaker:
    """Consecutive-failure breaker with half-open probing.

    CLOSED → (``failure_threshold`` consecutive failures) → OPEN →
    (``cooldown_s`` elapses) → HALF_OPEN, admitting up to
    ``half_open_probes`` calls → CLOSED on a success, back to OPEN on a
    failure. Callers ask :meth:`allow` before the call and report the
    outcome with :meth:`record_success` / :meth:`record_failure`.

    ``telemetry`` is the owning agent's scope: it exports
    ``breaker_opens``, ``breaker_fast_fails`` and, from the first trip
    on, ``breaker_state``.
    """

    def __init__(
        self,
        sim: "Simulator",
        policy: BreakerPolicy,
        name: str = "",
        telemetry=None,
    ) -> None:
        self.sim = sim
        self.policy = policy
        self.name = name
        self._scope = telemetry if telemetry is not None else NULL_SCOPE
        self._t_fast_fails = self._scope.counter("breaker_fast_fails")
        self._t_opens = self._scope.counter("breaker_opens")
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at: float | None = None
        self.opens = 0
        self.fast_fails = 0
        self._probes_inflight = 0

    @property
    def engaged(self) -> bool:
        """True while calls would fail fast: OPEN inside the cooldown, or
        HALF_OPEN with every probe slot taken.

        Read-only, unlike :meth:`allow`: placement layers can steer around
        a tripped host without consuming half-open probes or shifting
        breaker state. Counting exhausted half-open as engaged matters
        under load — once one caller holds the probe, routing anyone else
        at the host only manufactures fast-fails.
        """
        if self.state is BreakerState.HALF_OPEN:
            return self._probes_inflight >= self.policy.half_open_probes
        return (
            self.state is BreakerState.OPEN
            and self.opened_at is not None
            and self.sim.now - self.opened_at < self.policy.cooldown_s
        )

    def allow(self) -> bool:
        """May a call proceed right now? (Counts a probe in half-open.)"""
        if self.state is BreakerState.OPEN:
            assert self.opened_at is not None
            if self.sim.now - self.opened_at >= self.policy.cooldown_s:
                self.state = BreakerState.HALF_OPEN
                self._probes_inflight = 0
            else:
                self.fast_fails += 1
                self._t_fast_fails.add()
                return False
        if self.state is BreakerState.HALF_OPEN:
            if self._probes_inflight >= self.policy.half_open_probes:
                self.fast_fails += 1
                self._t_fast_fails.add()
                return False
            self._probes_inflight += 1
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.state = BreakerState.CLOSED
        self._probes_inflight = 0

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._trip()
        elif (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.policy.failure_threshold
        ):
            self._trip()

    def _trip(self) -> None:
        if self.opened_at is None:  # the first trip: the state joins the scrape
            self._scope.probe("breaker_state", lambda: BREAKER_STATE_VALUE[self.state])
        self.state = BreakerState.OPEN
        self.opened_at = self.sim.now
        self.opens += 1
        self._probes_inflight = 0
        self._t_opens.add()


@dataclasses.dataclass(frozen=True)
class DeadLetter:
    """Terminal record of a task that exhausted its retries."""

    task_id: int
    op_type: str
    submitted_at: float
    failed_at: float
    attempts: int
    error: str
