"""A fixed reference load that measures how fast the host is right now.

    python3 perfbench/reference.py      # prints one pass's host seconds

A tiny discrete-event loop in the simulator's style, with a standing set
of ``PENDING`` timers in a ``heapq`` of ``(time, sequence, item)`` tuples
and a dict index over them, so most of its time goes to the same pointer
chasing through a ~50 MB heap that the workloads do. It imports nothing
from ``repro``: a change to the package never changes its cost, and its
time moves only with the host's speed.

On the build host the simulator's run times drift by up to 1.7x with
neighbour load on the shared caches, in phases of seconds to minutes. The
runner times one pass, in a fresh process of its own, before the first
timed run and after each one, and scales the invocation's times by
``REFERENCE_S`` over the median pass.
"""

from __future__ import annotations

import heapq
import random
import sys
import time

PENDING = 100_000
STEPS = 80_000
#: Seconds one pass takes on the build host (2-core x86-64 VM, CPython
#: 3.11) in a quiet phase: scaled times read as seconds at that speed.
REFERENCE_S = 0.5


class _Item:
    __slots__ = ("key", "payload")

    def __init__(self, key: int) -> None:
        self.key = key
        self.payload = [key, key * 2, None]


def run_reference() -> float:
    """Host seconds for one pass of the reference load."""
    started = time.perf_counter()
    rng = random.Random(7)
    slots = [_Item(slot) for slot in range(PENDING)]
    heap = [(rng.random() * PENDING, slot, item) for slot, item in enumerate(slots)]
    heapq.heapify(heap)
    sequence = PENDING
    for _ in range(STEPS):
        now, _, item = heapq.heappop(heap)
        slots[rng.randrange(PENDING)].payload[2] = item.key
        fresh = _Item(item.key)
        slots[item.key] = fresh
        heapq.heappush(heap, (now + rng.random() * PENDING, sequence, fresh))
        sequence += 1
    if len(heap) != PENDING:
        raise RuntimeError("reference load lost items")
    return time.perf_counter() - started


if __name__ == "__main__":
    print(repr(run_reference()))
    sys.exit(0)
