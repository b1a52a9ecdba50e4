"""Burstiness of the arrival processes: CoV and index of dispersion.

A Poisson stream has inter-arrival CoV and count IDC near one; the MMPP
burst process that drives self-service clouds sits far above both.
"""

import math

from repro.sim import RandomStreams
from repro.workloads import MMPPBurst, Poisson


def draw_times(process, count, seed=1):
    next_arrival = process.sampler(RandomStreams(seed).stream("arrivals"))
    now, times = 0.0, []
    for _ in range(count):
        now = next_arrival(now)
        times.append(now)
    return times


def arrival_cov(times):
    """Coefficient of variation of the inter-arrival gaps."""
    gaps = [b - a for a, b in zip(times, times[1:])]
    mean = sum(gaps) / len(gaps)
    variance = sum((gap - mean) ** 2 for gap in gaps) / (len(gaps) - 1)
    return math.sqrt(variance) / mean


def index_of_dispersion(times, bin_s):
    """Variance-to-mean ratio of per-bin arrival counts."""
    counts = [0] * (int((times[-1] - times[0]) / bin_s) + 1)
    for time in times:
        counts[int((time - times[0]) / bin_s)] += 1
    mean = sum(counts) / len(counts)
    variance = sum((count - mean) ** 2 for count in counts) / (len(counts) - 1)
    return variance / mean


def test_poisson_cov_near_one():
    times = draw_times(Poisson(rate=1.0), 8000)
    assert 0.9 < arrival_cov(times) < 1.1


def test_mmpp_cov_above_one():
    process = MMPPBurst(calm_rate=0.01, burst_rate=2.0, mean_calm_s=500, mean_burst_s=100)
    times = draw_times(process, 8000, seed=3)
    assert arrival_cov(times) > 1.5


def test_idc_poisson_near_one():
    times = draw_times(Poisson(rate=1.0), 8000)
    assert 0.7 < index_of_dispersion(times, bin_s=30.0) < 1.5


def test_idc_bursty_much_greater_than_one():
    process = MMPPBurst(calm_rate=0.01, burst_rate=2.0, mean_calm_s=500, mean_burst_s=100)
    times = draw_times(process, 8000, seed=3)
    assert index_of_dispersion(times, bin_s=30.0) > 5.0
