"""Unit tests for the host-agent channel."""

import dataclasses

import pytest

from repro.controlplane import DEFAULT_COSTS, HostAgent, HostAgentError
from repro.datacenter import Host, HostState
from repro.sim import RandomStreams, Simulator
from repro.telemetry.metrics import Telemetry
from tests.scoped import scoped


def make_agent(sim, op_slots=8, costs=DEFAULT_COSTS, seed=1, telemetry=None):
    host = Host(entity_id="host-1", name="esx01")
    agent = HostAgent(
        sim, host, costs, rng=RandomStreams(seed).stream("hostd"), op_slots=op_slots,
        telemetry=telemetry.scope("hostd", host=host.name) if telemetry else None,
    )
    return host, agent


def run_call(sim, agent, kind="op", median=1.0):
    box = {}

    def proc():
        box["elapsed"] = yield from agent.call(kind, median)

    process = sim.spawn(proc())
    sim.run(until=process)
    return box["elapsed"]


def test_call_takes_about_median():
    sim = Simulator()
    _, agent = make_agent(sim)
    elapsed = run_call(sim, agent, median=2.0)
    assert 0.5 < elapsed < 20.0


def test_slots_limit_concurrent_calls():
    sim = Simulator()
    telemetry = Telemetry(sim)
    _, agent = make_agent(sim, op_slots=1, telemetry=telemetry)
    finishes = []

    def proc():
        yield from agent.call("op", 1.0)
        finishes.append(sim.now)

    sim.spawn(proc())
    sim.spawn(proc())
    sim.run()
    assert finishes[1] > finishes[0]
    assert scoped(telemetry, "hostd.calls") == 2
    assert scoped(telemetry, "hostd.call_latency") == 2


def test_unusable_host_raises():
    sim = Simulator()
    host, agent = make_agent(sim)
    host.state = HostState.DISCONNECTED

    def proc():
        with pytest.raises(HostAgentError, match="disconnected"):
            yield from agent.call("op", 1.0)
        yield sim.timeout(0.0)

    process = sim.spawn(proc())
    sim.run(until=process)


def test_injected_failure_raises_once():
    sim = Simulator()
    _, agent = make_agent(sim)
    agent.faults.block("outage")

    def proc():
        with pytest.raises(HostAgentError, match="outage"):
            yield from agent.call("op", 1.0)
        agent.faults.disarm("outage")
        yield from agent.call("op", 1.0)
        return "recovered"

    process = sim.spawn(proc())
    assert sim.run(until=process) == "recovered"


def test_call_timeout_surfaces_as_error():
    sim = Simulator()
    telemetry = Telemetry(sim)
    costs = dataclasses.replace(DEFAULT_COSTS, host_call_timeout_s=0.5)
    _, agent = make_agent(sim, costs=costs, telemetry=telemetry)

    def proc():
        with pytest.raises(HostAgentError, match="timed out"):
            yield from agent.call("slow-op", 10.0)
        return sim.now

    process = sim.spawn(proc())
    # Gave up exactly at the timeout deadline.
    assert sim.run(until=process) == pytest.approx(0.5)
    assert scoped(telemetry, "hostd.timeouts") == 1


def test_slot_released_after_timeout():
    sim = Simulator()
    costs = dataclasses.replace(DEFAULT_COSTS, host_call_timeout_s=0.5)
    _, agent = make_agent(sim, op_slots=1, costs=costs)
    log = []

    def slow():
        try:
            yield from agent.call("slow", 10.0)
        except HostAgentError:
            log.append("timeout")

    def fast():
        yield from agent.call("fast", 0.1)
        log.append("fast-done")

    sim.spawn(slow())
    sim.spawn(fast())
    sim.run()
    assert log == ["timeout", "fast-done"]


def test_utilization_positive_after_calls():
    sim = Simulator()
    _, agent = make_agent(sim)
    run_call(sim, agent)
    sim.run(until=sim.now + 10.0)
    assert 0.0 < agent.utilization() <= 1.0


def test_timeout_charges_busy_seconds():
    sim = Simulator()
    costs = dataclasses.replace(DEFAULT_COSTS, host_call_timeout_s=0.5)
    _, agent = make_agent(sim, costs=costs)

    def proc():
        with pytest.raises(HostAgentError, match="timed out"):
            yield from agent.call("slow-op", 10.0)

    process = sim.spawn(proc())
    sim.run(until=process)
    # The slot was held (and the agent busy) for the full timeout, so
    # utilization counts it — timeout storms must not look idle.
    sim.run(until=1.0)
    assert agent.utilization() == pytest.approx(0.5 / (1.0 * 8))


def test_open_breaker_fails_fast_without_holding_a_slot():
    from repro.controlplane.resilience import BreakerPolicy, CircuitBreaker

    sim = Simulator()
    telemetry = Telemetry(sim)
    _, agent = make_agent(sim, telemetry=telemetry)
    agent.breaker = CircuitBreaker(
        sim, BreakerPolicy(failure_threshold=1, cooldown_s=60.0), name="esx01",
        telemetry=telemetry.scope("hostd", host="esx01"),
    )
    agent.faults.block("outage")

    def proc():
        with pytest.raises(HostAgentError, match="outage"):
            yield from agent.call("op", 1.0)
        agent.faults.disarm("outage")
        start = sim.now
        with pytest.raises(HostAgentError, match="circuit breaker open"):
            yield from agent.call("op", 1.0)
        # Fail fast: no slot wait, no timeout burned.
        assert sim.now == start
        yield sim.timeout(0.0)

    process = sim.spawn(proc())
    sim.run(until=process)
    assert scoped(telemetry, "hostd.call_failures") == 1
    assert agent.breaker.fast_fails == scoped(telemetry, "hostd.breaker_fast_fails") == 1
    assert agent.breaker.opens == scoped(telemetry, "hostd.breaker_opens") == 1
    # The state is the server's hub probe, not a scoped id.
    assert telemetry.probes == []
