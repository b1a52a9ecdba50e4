"""Bounded message-fault chaos sweep: exactly-once must hold under transport chaos.

A tier-1-sized slice of the R-X5 acceptance sweep: a handful of seeded
storm runs, each fully bus-mediated, each hit by one message-fault kind
(drop / duplicate / delay / reorder / partition) — some combined with a
mid-storm server crash — and every run must quiesce with
``check_exactly_once`` clean: no lost terminal task, no double-applied
work, nothing stranded.  The full 200-point sweep runs via
``python -m repro.faults.chaos --mode message``.
"""

import random

import pytest

from repro.faults.chaos import fault_sweep, run_fault_point, storm_rig
from repro.faults.schedule import (
    MESSAGE_FAULT_KINDS,
    MessageDelay,
    MessageDrop,
    MessageDuplicate,
    MessageReorder,
    ServerCrash,
    TopicPartition,
    message_fault,
)


@pytest.mark.parametrize("kind", MESSAGE_FAULT_KINDS)
def test_each_message_fault_kind_preserves_exactly_once(kind):
    intensity = {"drop": 0.4, "duplicate": 0.4, "delay": 2.0, "reorder": 0.6}.get(
        kind, 0.0
    )
    result = run_fault_point(
        storm_rig(seed=11, total=8, concurrency=4, bus=True),
        [message_fault(kind, intensity, start_s=2.0, duration_s=40.0)],
    )
    assert result.ok, result.violations
    assert result.completed + result.failed == 8
    assert result.counters["published"] > 0 and result.counters["delivered"] > 0


def test_message_fault_with_crash_preserves_exactly_once():
    result = run_fault_point(
        storm_rig(seed=5, total=8, concurrency=4, bus=True),
        [
            MessageDrop(start_s=2.0, duration_s=90.0, rate=0.5),
            ServerCrash(start_s=20.0, duration_s=30.0, count=1),
        ],
    )
    assert result.ok, result.violations
    assert result.completed + result.failed == 8


def test_bounded_message_sweep_all_clean():
    results = fault_sweep(
        "message",
        seeds=range(2),
        points_per_seed=5,
        rng=random.Random(0xB005),
        total=8,
        concurrency=4,
    )
    assert len(results) == 10
    # Every kind appears: points cycle through the kind list.
    assert len({r.faults[0].kind for r in results}) == len(MESSAGE_FAULT_KINDS)
    bad = [r for r in results if not r.ok]
    assert bad == [], [(r.seed, r.faults, r.violations) for r in bad]


def test_message_fault_specs_describe():
    specs = [
        MessageDrop(start_s=1.0, duration_s=10.0, rate=0.4),
        MessageDuplicate(start_s=2.0, duration_s=10.0, rate=0.2),
        MessageDelay(start_s=3.0, duration_s=10.0, delay_s=1.5),
        MessageReorder(start_s=4.0, duration_s=10.0, rate=0.7),
        TopicPartition(start_s=5.0, duration_s=10.0),
    ]
    # Message faults cover every topic on the bus.
    assert [spec.describe([]) for spec in specs] == [
        "message_drop[*]",
        "message_duplicate[*]",
        "message_delay[*]",
        "message_reorder[*]",
        "topic_partition[*]",
    ]
    assert [spec.intensity for spec in specs] == [0.4, 0.2, 1.5, 0.7, 1.0]
