"""Unit tests for named random streams."""

import random

from repro.sim import RandomStreams
from repro.sim.random import (
    bounded,
    exponentials,
    lognormal_from_median,
    pareto,
    service_time,
)

import pytest


def test_same_seed_same_stream():
    a = RandomStreams(seed=1).stream("arrivals")
    b = RandomStreams(seed=1).stream("arrivals")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_are_independent():
    streams = RandomStreams(seed=1)
    a = streams.stream("arrivals")
    b = streams.stream("lifetimes")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_different_seeds_differ():
    a = RandomStreams(seed=1).stream("x")
    b = RandomStreams(seed=2).stream("x")
    assert a.random() != b.random()


def test_stream_is_cached():
    streams = RandomStreams(seed=1)
    assert streams.stream("x") is streams.stream("x")


def test_spawn_child_is_independent():
    parent = RandomStreams(seed=1)
    child = parent.spawn("worker")
    assert parent.stream("x").random() != child.stream("x").random()


def test_exponential_mean_rough():
    draw = exponentials(RandomStreams(seed=3).stream("exp"), 0.1)
    samples = [draw() for _ in range(20000)]
    mean = sum(samples) / len(samples)
    assert 9.0 < mean < 11.0


def test_exponentials_reject_nonpositive_rate():
    rng = RandomStreams(seed=3).stream("exp")
    with pytest.raises(ValueError):
        exponentials(rng, 0.0)
    with pytest.raises(ValueError):
        exponentials(rng, -5.0)


def test_lognormal_median_rough():
    rng = RandomStreams(seed=4).stream("ln")
    samples = sorted(lognormal_from_median(rng, 8.0, 0.5) for _ in range(20001))
    median = samples[len(samples) // 2]
    assert 7.0 < median < 9.0


def test_lognormal_nonpositive_median_is_zero():
    rng = RandomStreams(seed=4).stream("ln")
    assert lognormal_from_median(rng, 0.0, 0.5) == 0.0


def test_bounded_clamps():
    assert bounded(5.0, 0.0, 1.0) == 1.0
    assert bounded(-5.0, 0.0, 1.0) == 0.0
    assert bounded(0.5, 0.0, 1.0) == 0.5


def test_pareto_lower_bound_is_scale():
    rng = RandomStreams(seed=5).stream("p")
    samples = [pareto(rng, shape=2.0, scale=3.0) for _ in range(1000)]
    assert min(samples) >= 3.0


def test_pareto_validates_parameters():
    rng = RandomStreams(seed=5).stream("p")
    with pytest.raises(ValueError):
        pareto(rng, shape=0.0, scale=1.0)
    with pytest.raises(ValueError):
        pareto(rng, shape=1.0, scale=0.0)


@pytest.mark.parametrize("median", [0.0, -1.0, 0.002, 0.04, 1.5, 30.0])
@pytest.mark.parametrize("sigma", [0.0, 0.3, 2.5])
def test_service_time_is_the_clamped_lognormal_draw_bit_for_bit(median, sigma):
    """``service_time`` replaced three written-out copies of the clamped
    draw; it must give the same bits and consume the stream the same way.
    A median <= 0 gives 0.0 and draws nothing."""
    ours, theirs = random.Random(7), random.Random(7)
    for _ in range(200):
        got = service_time(ours, median, sigma)
        if median <= 0:
            assert got == 0.0
            continue
        want = bounded(
            lognormal_from_median(theirs, median, sigma), median * 0.25, median * 10.0
        )
        assert got.hex() == want.hex()
    assert ours.random() == theirs.random()
