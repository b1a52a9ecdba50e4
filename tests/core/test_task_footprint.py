"""Per-task memory tripwire: what a finished clone storm keeps per task.

A run holds every task it ran, with that task's own records, until the
run ends; the per-task share of what the run retains is what bounds a
long open-loop day. A linked clone task holds its ``Task`` row, its
result VM and disk; a tuple per phase or a dict per record shows up
here first. Locks live only while held, and a task's repr stays small
however large the inventory behind it.
"""

import gc
import tracemalloc

from repro.controlplane.costs import ControlPlaneConfig
from repro.core.experiments import StormRig

#: Characters ``repr(task)`` may take: the result VM's repr once walked
#: VM -> host -> cluster -> every host, ~25 million characters after a
#: 40-clone storm on four hosts.
REPR_CHARS = 2_000

#: Traced bytes a finished storm may retain per task, counted from the
#: built rig: ~1,500 today, ~2,500 with a ``(name, plane, seconds)``
#: tuple per phase on each task.
BYTES_PER_TASK = 2_000

CLONES = 600


def storm_rig() -> StormRig:
    return StormRig(
        seed=0,
        hosts=16,
        datastores=4,
        host_memory_gb=4096.0,
        config=ControlPlaneConfig(max_inflight_tasks=96),
    )


def test_storm_bytes_retained_per_task():
    # A small storm first, so lazy imports and first-use caches are paid
    # before the count starts.
    storm_rig().closed_loop_storm(total=8, concurrency=8, linked=True)
    gc.collect()
    tracemalloc.start()
    try:
        rig = storm_rig()
        built, _peak = tracemalloc.get_traced_memory()
        outcome = rig.closed_loop_storm(total=CLONES, concurrency=128, linked=True)
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome["completed"] == CLONES
    # Plain numbers only: a failing assert that named the task list would
    # have pytest render every task.
    per_task = (retained - built) / CLONES
    assert per_task <= BYTES_PER_TASK, f"{per_task:.0f} traced bytes retained per task"


def test_storm_keeps_no_idle_lock():
    rig = storm_rig()
    outcome = rig.closed_loop_storm(total=64, concurrency=32, linked=True)
    assert outcome["completed"] == 64
    assert rig.server.locks.acquisitions > 0
    assert rig.server.locks._locks == {}
    assert rig.server.locks.held() == []


def test_task_repr_stays_small():
    rig = StormRig(seed=0, hosts=4, datastores=2)
    rig.closed_loop_storm(total=40, concurrency=40, linked=True)
    tasks = rig.server.tasks.tasks
    assert len(tasks) == 40
    # The lengths only: a failing assert that named a task would render it.
    longest = max(len(repr(task)) for task in tasks)
    assert longest < REPR_CHARS, f"repr(task) is {longest} characters"
