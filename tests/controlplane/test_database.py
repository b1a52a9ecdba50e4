"""Unit tests for the database model."""

import pytest

from repro.controlplane import DEFAULT_COSTS
from repro.controlplane.database import DatabaseModel
from repro.sim import RandomStreams, Simulator
from repro.telemetry.metrics import Telemetry
from tests.scoped import scoped


def run_process(sim, generator):
    box = {}

    def wrapper():
        box["value"] = yield from generator
        return box["value"]

    process = sim.spawn(wrapper())
    sim.run(until=process)
    return box["value"]


def make_db(sim, connections=4, batching=False, seed=1, telemetry=None):
    return DatabaseModel(
        sim,
        DEFAULT_COSTS,
        connections=connections,
        rng=RandomStreams(seed).stream("db"),
        batching=batching,
        telemetry=telemetry.scope("db", component="db") if telemetry else None,
    )


def test_write_takes_positive_time():
    sim = Simulator()
    database = make_db(sim)
    elapsed = run_process(sim, database.write(rows=1))
    assert elapsed > 0
    assert sim.now == elapsed


def test_write_cost_scales_with_rows():
    sim = Simulator()
    database = make_db(sim)
    few = run_process(sim, database.write(rows=1))
    many = run_process(sim, database.write(rows=50))
    assert many > few * 10


def test_batching_reduces_write_cost():
    def total_time(batching):
        sim = Simulator()
        database = make_db(sim, batching=batching, seed=7)
        for _ in range(20):
            run_process(sim, database.write(rows=4))
        return sim.now

    assert total_time(True) < total_time(False) / 2


def test_reads_cheaper_than_writes():
    sim = Simulator()
    database = make_db(sim, seed=3)
    reads = sum(run_process(sim, database.read()) for _ in range(30))
    writes = sum(run_process(sim, database.write()) for _ in range(30))
    assert reads < writes


def test_connection_pool_limits_concurrency():
    sim = Simulator()
    database = make_db(sim, connections=1)
    finish = []

    def writer():
        yield from database.write(rows=10)
        finish.append(sim.now)

    sim.spawn(writer())
    sim.spawn(writer())
    sim.run()
    # Serialized on the single connection: second ends strictly later.
    assert finish[1] > finish[0]


def test_rows_must_be_positive():
    sim = Simulator()
    database = make_db(sim)
    with pytest.raises(ValueError):
        run_process(sim, database.write(rows=0))
    with pytest.raises(ValueError):
        run_process(sim, database.read(rows=0))


def test_rows_error_fails_inside_the_phase_span():
    # Operation.timed hands back phase()'s generator; the write must still
    # raise inside it, so the phase span closes with the error.
    from repro.operations.base import CONTROL, Operation
    from repro.tracing import Tracer

    sim = Simulator()
    database = make_db(sim)
    tracer = Tracer(sim)
    task = type("Task", (), {"phases": [], "span": tracer.start_trace("task.t")})()
    server = type("Server", (), {"sim": sim})()
    timed = Operation().timed(
        server, task, "commit", CONTROL, lambda span: database.write(rows=0, span=span)
    )
    with pytest.raises(ValueError):
        run_process(sim, timed)
    (commit,) = [span for span in tracer.spans if span.name == "commit"]
    assert commit.finished
    assert commit.tags["error"] == "ValueError"
    assert task.phases == []


def test_slowdown_injection():
    def one_write(slow):
        sim = Simulator()
        database = make_db(sim, seed=5)
        if slow:
            database.faults.set_latency("slowdown", 10.0)
        return run_process(sim, database.write())

    assert one_write(True) == pytest.approx(one_write(False) * 10.0)


def test_slowdown_must_be_at_least_one():
    sim = Simulator()
    database = make_db(sim)
    with pytest.raises(ValueError):
        database.faults.set_latency("slowdown", 0.5)


def test_utilization_bounded_and_positive_under_load():
    sim = Simulator()
    database = make_db(sim, connections=2)

    def writer():
        for _ in range(50):
            yield from database.write()

    sim.spawn(writer())
    sim.spawn(writer())
    sim.run()
    utilization = database.utilization()
    assert 0.0 < utilization <= 1.0


def test_metrics_counters_track_rows():
    sim = Simulator()
    telemetry = Telemetry(sim)
    database = make_db(sim, telemetry=telemetry)
    run_process(sim, database.write(rows=3))
    run_process(sim, database.read(rows=2))
    assert scoped(telemetry, "db.writes") == 3
    assert scoped(telemetry, "db.reads") == 2
    assert scoped(telemetry, "db.writes_latency") == 1
