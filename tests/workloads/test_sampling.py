"""Prefetched sampling: bit-identical to per-event draws.

Every sampler must consume its stream in exactly the per-event draw order
and through exactly the per-event arithmetic, so that a driver using it
produces the trace a per-event driver would. 2,000 draws span three
refills of the 512-draw chunk, so the refill boundaries are covered.
"""

import pickle
import random

import pytest

from repro.sim.random import CHUNK, exponentials, uniforms
from repro.workloads import CLOUD_B, DiurnalPoisson, MMPPBurst, Poisson
from repro.workloads.lifetimes import (
    CLASSIC_DC_LIFETIME,
    CLOUD_A_LIFETIME,
    CLOUD_B_LIFETIME,
)

N = 2_000
assert N > 3 * CHUNK


def test_batched_uniforms_identical():
    draw = uniforms(random.Random(7))
    reference = random.Random(7)
    assert [draw() for _ in range(N)] == [reference.random() for _ in range(N)]


@pytest.mark.parametrize("lambd", [0.001, 0.5, 3.0])
def test_batched_exponentials_identical(lambd):
    draw = exponentials(random.Random(11), lambd)
    reference = random.Random(11)
    assert [draw() for _ in range(N)] == [reference.expovariate(lambd) for _ in range(N)]


@pytest.mark.parametrize(
    "model", [CLOUD_A_LIFETIME, CLOUD_B_LIFETIME, CLASSIC_DC_LIFETIME]
)
def test_sample_batch_identical_to_sample(model):
    batch = model.sample_batch(random.Random(3), N)
    reference = random.Random(3)
    assert batch == [model.sample(reference) for _ in range(N)]


def test_batched_lifetimes_identical_across_refills(model=CLOUD_A_LIFETIME):
    draw = model.draws(random.Random(5))
    reference = random.Random(5)
    assert [draw() for _ in range(N)] == [model.sample(reference) for _ in range(N)]


# -- per-event references: the textbook algorithms over a plain rng ----------


def _poisson_reference(process, rng, now):
    return now + rng.expovariate(process.rate)


def _diurnal_reference(process, rng, now):
    # Thinning (Lewis & Shedler) against the max rate.
    ceiling = process.base_rate * (1.0 + process.amplitude)
    time = now
    while True:
        time += rng.expovariate(ceiling)
        if rng.random() <= process.rate_at(time) / ceiling:
            return time


def _mmpp_reference():
    state = {"in_burst": False, "until": 0.0}

    def reference(process, rng, now):
        time = now
        while True:
            while time >= state["until"]:
                state["in_burst"] = not state["in_burst"]
                dwell = process.mean_burst_s if state["in_burst"] else process.mean_calm_s
                state["until"] += rng.expovariate(1.0 / dwell)
            rate = process.burst_rate if state["in_burst"] else process.calm_rate
            candidate = time + rng.expovariate(rate)
            if candidate <= state["until"]:
                return candidate
            time = state["until"]

    return reference


def _times(next_arrival, count):
    times = []
    now = 0.0
    for _ in range(count):
        now = next_arrival(now)
        times.append(now)
    return times


def _reference_times(reference, process, seed, count):
    rng = random.Random(seed)
    return _times(lambda now: reference(process, rng, now), count)


MMPP = MMPPBurst(calm_rate=0.02, burst_rate=0.8, mean_calm_s=600.0, mean_burst_s=60.0)


def test_batched_poisson_identical():
    process = Poisson(rate=0.25)
    assert _times(process.sampler(random.Random(1)), N) == _reference_times(
        _poisson_reference, process, 1, N
    )


def test_batched_diurnal_identical():
    process = DiurnalPoisson(base_rate=0.05, amplitude=0.8)
    assert _times(process.sampler(random.Random(2)), N) == _reference_times(
        _diurnal_reference, process, 2, N
    )


def test_batched_mmpp_identical():
    assert _times(MMPP.sampler(random.Random(4)), N) == _reference_times(
        _mmpp_reference(), MMPP, 4, N
    )


def test_batched_mmpp_leaves_process_state_untouched():
    before = vars(MMPP).copy()
    _times(MMPP.sampler(random.Random(4)), 200)
    assert vars(MMPP) == before
    with pytest.raises(AttributeError):
        MMPP.calm_rate = 1.0


def test_one_mmpp_value_drives_samplers_that_share_no_phase_state():
    first = MMPP.sampler(random.Random(4))
    second = MMPP.sampler(random.Random(4))
    # Advance the first well past several phase flips; the second must
    # still start from the opening state, not from where the first is.
    head = _times(first, 500)
    assert _times(second, 500) == head
    assert _times(first, 10) != head[:10]


def test_cloud_b_profile_pickles():
    clone = pickle.loads(pickle.dumps(CLOUD_B))
    assert clone.arrivals == CLOUD_B.arrivals
    assert clone.mix.fractions == CLOUD_B.mix.fractions
    assert _times(clone.arrivals.sampler(random.Random(6)), 100) == _times(
        CLOUD_B.arrivals.sampler(random.Random(6)), 100
    )


def test_driver_trace_unchanged_by_batching():
    """End-to-end: a short scenario still renders the committed shape."""
    from repro.core.scenario import Scenario
    from repro.workloads import CLOUD_A

    result = Scenario(profile=CLOUD_A, duration_s=1_800.0, seed=0).run()
    assert len(result.trace) > 0
