"""The host agent (hostd) channel: per-host operation slots and call timing.

Each hypervisor host runs a management agent with a bounded number of
in-flight management operations (~8 in the vSphere era). Management-server
operations fan calls out to these agents; a disconnected or wedged agent
surfaces as a call timeout.

Fault injection enters through ``self.faults`` (a
:class:`~repro.faults.hooks.FaultHook`): outages, probabilistic drops,
and latency multipliers. An optional per-agent
:class:`~repro.controlplane.resilience.CircuitBreaker` makes repeated
failures fail fast instead of burning the full call timeout each try.
"""

from __future__ import annotations

import random
import typing

from repro.datacenter.entities import Host
from repro.faults.errors import TransientError
from repro.faults.hooks import FaultHook
from repro.sim.kernel import Simulator
from repro.sim.random import service_time
from repro.sim.resources import Resource
from repro.telemetry.metrics import NULL_SCOPE
from repro.tracing import NULL_SPAN, PHASE_AGENT, PHASE_QUEUE
from repro.controlplane.costs import ControlPlaneCosts

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.controlplane.resilience import CircuitBreaker


class HostAgentError(TransientError):
    """A host-agent call failed (timeout, injected fault, disconnection).

    Transient by taxonomy: retry policies may re-attempt these (ideally
    against a different host).
    """


class HostAgent:
    """The management server's channel to one host."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        costs: ControlPlaneCosts,
        rng: random.Random,
        op_slots: int = 8,
        telemetry=None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.costs = costs
        self.rng = rng
        self.slots = Resource(sim, capacity=op_slots, name=f"hostd:{host.name}")
        # Ids under the server's per-host scope (``vc-1.hostd.host-1.calls``).
        scope = telemetry if telemetry is not None else NULL_SCOPE
        self._t_call_failures = scope.counter("call_failures")
        self._t_timeouts = scope.counter("timeouts")
        self._t_calls = scope.counter("calls")
        self._t_call_latency = scope.duration("call_latency")
        self.faults = FaultHook(
            sim, name=host.name, rng=rng, error_factory=HostAgentError
        )
        self.breaker: "CircuitBreaker | None" = None
        self._busy_seconds = 0.0

    def _note_success(self) -> None:
        if self.breaker is not None:
            self.breaker.record_success()

    def _note_failure(self) -> None:
        if self.breaker is not None:
            self.breaker.record_failure()

    def call(
        self, kind: str, median_s: float, span=NULL_SPAN, task=None
    ) -> typing.Generator[typing.Any, typing.Any, float]:
        """Process-style: one agent call; returns elapsed seconds.

        Raises :class:`HostAgentError` if the host is unusable, the
        breaker is open, a fault was injected, or service exceeds the
        configured timeout.

        ``task`` keeps signature parity with the bus-mediated
        :class:`~repro.controlplane.bus.AgentProxy`, which derives its
        idempotency key from it; the direct channel has no delivery layer,
        so it is unused here.
        """
        start = self.sim.now
        call_span = (
            span.child(f"hostd.{kind}", phase=PHASE_AGENT, tags={"host": self.host.name})
            if not span.is_null
            else span
        )
        try:
            yield from self._call(kind, median_s, call_span)
        except BaseException as exc:
            call_span.finish(error=type(exc).__name__)
            raise
        call_span.finish()
        return self.sim.now - start

    def _call(
        self, kind: str, median_s: float, span
    ) -> typing.Generator[typing.Any, typing.Any, None]:
        if self.breaker is not None and not self.breaker.allow():
            raise HostAgentError(
                f"{kind} on {self.host.name}: circuit breaker open"
            )
        try:
            if not self.host.is_usable:
                raise HostAgentError(
                    f"host {self.host.name} is {self.host.state.value}"
                )
            factor = self.faults.fire() if self.faults.armed else 1.0
        except Exception:
            self._t_call_failures.add()
            self._note_failure()
            raise
        start = self.sim.now
        request = self.slots.request()
        wait_span = (
            span.child("hostd.slot_wait", phase=PHASE_QUEUE, tags={"wait": True})
            if not span.is_null
            else span
        )
        yield request
        wait_span.finish()
        service = service_time(self.rng, median_s, self.costs.sigma) * factor
        try:
            if service > self.costs.host_call_timeout_s:
                # The call would exceed the timeout: the server gives up at
                # the deadline and surfaces an error. The slot was held (and
                # the agent busy) for the full timeout, so utilization must
                # count it — timeout storms are exactly when it matters.
                yield self.sim.timeout(self.costs.host_call_timeout_s)
                self._busy_seconds += self.costs.host_call_timeout_s
                self._t_timeouts.add()
                self._note_failure()
                raise HostAgentError(
                    f"{kind} on {self.host.name} timed out after "
                    f"{self.costs.host_call_timeout_s:.0f}s"
                )
            yield self.sim.timeout(service)
        finally:
            self.slots.release(request)
        self._busy_seconds += service
        self._note_success()
        self._t_calls.add()
        self._t_call_latency.observe(self.sim.now - start)

    @property
    def queue_depth(self) -> int:
        return self.slots.queue_depth

    def utilization(self) -> float:
        span = self.sim.now
        if span <= 0:
            return 0.0
        return min(1.0, self._busy_seconds / (span * self.slots.capacity))
