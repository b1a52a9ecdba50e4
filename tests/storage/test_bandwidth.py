"""Unit + property tests for the fair-share bandwidth link."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.storage import FairShareLink


def run_transfers(capacity, submissions):
    """submissions: list of (start_time, size). Returns finish times."""
    sim = Simulator()
    link = FairShareLink(sim, capacity_bps=capacity)
    finishes = {}

    def submit(index, start, size):
        yield sim.timeout(start)
        transfer = yield link.transfer(size)
        finishes[index] = (sim.now, transfer)

    for index, (start, size) in enumerate(submissions):
        sim.spawn(submit(index, start, size))
    sim.run()
    return sim, link, finishes


def test_single_transfer_takes_size_over_capacity():
    sim, link, finishes = run_transfers(100.0, [(0.0, 500.0)])
    time, transfer = finishes[0]
    assert time == pytest.approx(5.0)
    assert transfer.duration == pytest.approx(5.0)
    assert link.bytes_delivered == pytest.approx(500.0)


def test_two_equal_transfers_share_and_finish_together():
    sim, link, finishes = run_transfers(100.0, [(0.0, 500.0), (0.0, 500.0)])
    assert finishes[0][0] == pytest.approx(10.0)
    assert finishes[1][0] == pytest.approx(10.0)


def test_late_joiner_slows_first_transfer():
    # T0: 1000 bytes at 100 B/s. At t=5, 500 done. T1 joins with 250 bytes.
    # Shared rate 50 B/s each: T1 finishes at t=10; T0 has 250 left at t=10,
    # then full rate: finishes at t=12.5.
    sim, link, finishes = run_transfers(100.0, [(0.0, 1000.0), (5.0, 250.0)])
    assert finishes[1][0] == pytest.approx(10.0)
    assert finishes[0][0] == pytest.approx(12.5)


def test_zero_byte_transfer_completes_immediately():
    sim, link, finishes = run_transfers(100.0, [(0.0, 0.0)])
    assert finishes[0][0] == 0.0
    assert link.transfer_count == 1


def test_negative_size_rejected():
    sim = Simulator()
    link = FairShareLink(sim, capacity_bps=100.0)
    with pytest.raises(ValueError):
        link.transfer(-1.0)


def test_capacity_must_be_positive():
    sim = Simulator()
    with pytest.raises(ValueError):
        FairShareLink(sim, capacity_bps=0.0)


def test_utilization_busy_fraction():
    # 100-byte transfer at 100 B/s starting at t=0, then idle to t=10.
    sim, link, finishes = run_transfers(100.0, [(0.0, 100.0)])
    sim.run(until=10.0)
    assert link.utilization() == pytest.approx(0.1)


@given(
    sizes=st.lists(
        st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=12
    ),
    capacity=st.floats(min_value=1.0, max_value=1e4),
)
@settings(max_examples=60, deadline=None)
def test_total_time_is_work_conserving(sizes, capacity):
    """All transfers started together finish exactly at sum(sizes)/capacity."""
    sim, link, finishes = run_transfers(capacity, [(0.0, size) for size in sizes])
    last_finish = max(time for time, _ in finishes.values())
    assert last_finish == pytest.approx(sum(sizes) / capacity, rel=1e-6)
    assert link.bytes_delivered == pytest.approx(sum(sizes), rel=1e-6)


@given(
    submissions=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.floats(min_value=1.0, max_value=1e5),
        ),
        min_size=1,
        max_size=10,
    ),
    capacity=st.floats(min_value=10.0, max_value=1e4),
)
@settings(max_examples=60, deadline=None)
def test_no_transfer_beats_its_solo_time_and_all_finish(submissions, capacity):
    sim, link, finishes = run_transfers(capacity, submissions)
    assert len(finishes) == len(submissions)
    for index, (start, size) in enumerate(submissions):
        finish, transfer = finishes[index]
        solo = size / capacity
        assert finish >= start + solo - 1e-6
        assert transfer.size_bytes == size
        assert transfer.remaining == 0.0
