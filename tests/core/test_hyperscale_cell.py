"""The R-F-hyperscale cell against a Timeout-based reference, plus its
per-timer memory tripwire.

The cell schedules its standing timers as :class:`Call` entries. The
reference below is the same fleet lifecycle on pooled :class:`Timeout`
objects, the kernel's ordinary event path; every deterministic output
must match it exactly.
"""

import tracemalloc

import pytest

from repro.core.experiments import _hyperscale_cell
from repro.core.parallel import derive_seed
from repro.sim import RandomStreams, Simulator
from repro.sim.random import exponentials
from repro.workloads.lifetimes import CLOUD_A_LIFETIME

#: Traced bytes allowed per pending timer at the cell's peak: one heap
#: tick (a float carrying its sequence int) reads ~102 bytes; the
#: ``(time, sequence, entry)`` tuple it replaced read ~134, and a Timeout
#: per VM costs ~340.
BYTES_PER_PENDING_TIMER = 130


def _reference_cell(seed: int, vms: int) -> dict:
    """The cell on ``sim.timeout``: one Timeout per arrival and lifetime."""
    sim = Simulator()
    streams = RandomStreams(derive_seed(seed, 0))
    gap = exponentials(streams.stream("arrivals"), vms / 3600.0)
    lifetime = CLOUD_A_LIFETIME.draws(streams.stream("lifetimes"))
    host_count = vms // 128 + 1
    slots = [0] * host_count
    state = {"cursor": 0, "deploys": 0, "expiries": 0, "peak_pending": 0}

    def expire(event):
        state["expiries"] += 1
        slots[event._value] -= 1

    def arrive(_event):
        state["deploys"] += 1
        host = state["cursor"]
        while slots[host] >= 256:
            host = (host + 1) % host_count
        slots[host] += 1
        state["cursor"] = (host + 1) % host_count
        sim.timeout(lifetime(), value=host).callbacks.append(expire)
        state["peak_pending"] = max(state["peak_pending"], sim.queue_depth)
        if state["deploys"] < vms:
            sim.timeout(gap()).callbacks.append(arrive)

    sim.timeout(gap()).callbacks.append(arrive)
    sim.run()
    del state["cursor"]
    return {**state, "makespan_s": sim.now}


@pytest.mark.parametrize("vms", [2_000, 10_000])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cell_matches_timeout_reference(seed, vms):
    outcome = _hyperscale_cell((seed, 0, vms))
    expected = _reference_cell(seed, vms)
    assert {key: outcome[key] for key in expected} == expected
    assert expected["deploys"] == expected["expiries"] == vms


def test_cell_memory_per_pending_timer():
    """Host-independent tripwire: traced peak bytes over peak pending."""
    tracemalloc.start()
    try:
        outcome = _hyperscale_cell((0, 0, 20_000))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / outcome["peak_pending"] <= BYTES_PER_PENDING_TIMER
