"""Unit tests for the copy engine and scheduler."""

import pytest

from repro.datacenter import Datastore
from repro.sim import Simulator
from repro.storage import CopyEngine, CopyFailed, CopyScheduler
from repro.storage.copy_engine import GB


@pytest.fixture
def sim():
    return Simulator()


def make_ds(n, capacity=10000.0):
    return Datastore(entity_id=f"ds-{n}", name=f"lun{n}", capacity_gb=capacity)


def run_copy(sim, engine, source, destination, size_gb):
    result = {}

    def proc():
        result["elapsed"] = yield from engine.copy(source, destination, size_gb)

    process = sim.spawn(proc())
    sim.run(until=process)
    return result["elapsed"]


def test_copy_duration_scales_with_size(sim):
    engine = CopyEngine(sim, default_capacity_bps=100 * 1024**3)  # 100 GB/s
    src, dst = make_ds(1), make_ds(2)
    elapsed = run_copy(sim, engine, src, dst, 200.0)
    assert elapsed == pytest.approx(200.0 * GB / (100 * 1024**3))


def test_copy_allocates_destination_space(sim):
    engine = CopyEngine(sim, default_capacity_bps=GB)
    src, dst = make_ds(1), make_ds(2)
    run_copy(sim, engine, src, dst, 40.0)
    assert dst.used_gb == pytest.approx(40.0)
    assert src.used_gb == 0.0


def test_copy_counts_bytes_both_directions(sim):
    engine = CopyEngine(sim, default_capacity_bps=GB)
    src, dst = make_ds(1), make_ds(2)
    run_copy(sim, engine, src, dst, 10.0)
    assert engine.total_bytes_written == pytest.approx(10 * GB)
    assert engine.metrics.counter("bytes_read").value == pytest.approx(10 * GB)


def test_injected_failure_raises_and_leaks_nothing(sim):
    engine = CopyEngine(sim, default_capacity_bps=GB)
    src, dst = make_ds(1), make_ds(2)
    engine.inject_failure()

    def proc():
        with pytest.raises(CopyFailed):
            yield from engine.copy(src, dst, 40.0)
        return "done"

    process = sim.spawn(proc())
    assert sim.run(until=process) == "done"
    assert dst.used_gb == 0.0


def test_concurrent_copies_share_destination_link(sim):
    engine = CopyEngine(sim, default_capacity_bps=GB)  # 1 GB/s
    src, dst = make_ds(1), make_ds(2)
    finishes = []

    def proc():
        yield from engine.copy(src, dst, 10.0)
        finishes.append(sim.now)

    sim.spawn(proc())
    sim.spawn(proc())
    sim.run()
    # Two 10 GB copies over a shared 1 GB/s link: both end at ~20.48s
    assert finishes[0] == pytest.approx(finishes[1])
    assert finishes[0] == pytest.approx(2 * 10.0 * GB / GB)


def test_copies_to_different_datastores_do_not_interfere(sim):
    engine = CopyEngine(sim, default_capacity_bps=GB)
    src = make_ds(1)
    finishes = {}

    def proc(tag, destination):
        yield from engine.copy(src, destination, 10.0)
        finishes[tag] = sim.now

    sim.spawn(proc("a", make_ds(2)))
    sim.spawn(proc("b", make_ds(3)))
    sim.run()
    assert finishes["a"] == pytest.approx(10.0 * GB / GB)
    assert finishes["b"] == pytest.approx(10.0 * GB / GB)


class TestCopyScheduler:
    def test_slots_limit_concurrency(self, sim):
        engine = CopyEngine(sim, default_capacity_bps=GB)
        scheduler = CopyScheduler(sim, engine, slots_per_datastore=1)
        src, dst = make_ds(1), make_ds(2)
        finishes = []

        def proc():
            yield from scheduler.scheduled_copy(src, dst, 10.0)
            finishes.append(sim.now)

        sim.spawn(proc())
        sim.spawn(proc())
        sim.run()
        # Serialized: 10s then 20s (at 1 GB/s each copy is 10s alone).
        assert finishes == [pytest.approx(10.0), pytest.approx(20.0)]

    def test_queue_wait_recorded(self, sim):
        engine = CopyEngine(sim, default_capacity_bps=GB)
        scheduler = CopyScheduler(sim, engine, slots_per_datastore=1)
        src, dst = make_ds(1), make_ds(2)

        def proc():
            yield from scheduler.scheduled_copy(src, dst, 10.0)

        sim.spawn(proc())
        sim.spawn(proc())
        sim.run()
        waits = scheduler.metrics.latency("queue_wait")
        assert waits.count == 2
        assert waits.percentile(1.0) == pytest.approx(10.0)

    def test_slot_released_on_copy_failure(self, sim):
        engine = CopyEngine(sim, default_capacity_bps=GB)
        scheduler = CopyScheduler(sim, engine, slots_per_datastore=1)
        src, dst = make_ds(1), make_ds(2)
        engine.inject_failure()
        outcomes = []

        def failing():
            try:
                yield from scheduler.scheduled_copy(src, dst, 10.0)
            except CopyFailed:
                outcomes.append("failed")

        def following():
            yield from scheduler.scheduled_copy(src, dst, 10.0)
            outcomes.append("ok")

        sim.spawn(failing())
        sim.spawn(following())
        sim.run()
        assert outcomes == ["failed", "ok"]

    def test_invalid_slot_count(self, sim):
        engine = CopyEngine(sim)
        with pytest.raises(ValueError):
            CopyScheduler(sim, engine, slots_per_datastore=0)
