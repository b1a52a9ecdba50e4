"""Unit tests for arrival processes."""

import pytest

from repro.sim import RandomStreams
from repro.workloads import DiurnalPoisson, MMPPBurst, Poisson


def draw(process, count, seed=1):
    rng = RandomStreams(seed).stream("arrivals")
    times = []
    now = 0.0
    for _ in range(count):
        now = process.next_arrival(now, rng)
        times.append(now)
    return times


def test_poisson_rate_roughly_matches():
    times = draw(Poisson(rate=0.5), 5000)
    observed_rate = len(times) / times[-1]
    assert 0.45 < observed_rate < 0.55


def test_poisson_strictly_increasing():
    times = draw(Poisson(rate=1.0), 500)
    assert all(b > a for a, b in zip(times, times[1:]))


def test_poisson_validation():
    with pytest.raises(ValueError):
        Poisson(rate=0.0)


def test_diurnal_peak_denser_than_trough():
    process = DiurnalPoisson(base_rate=0.1, amplitude=0.8, peak_at_s=12 * 3600.0)
    times = draw(process, 40000, seed=3)
    one_day = [t % 86400 for t in times if t < 10 * 86400]
    peak_window = sum(1 for t in one_day if 10 * 3600 <= t < 14 * 3600)
    trough_window = sum(1 for t in one_day if 22 * 3600 <= t or t < 2 * 3600)
    assert peak_window > 3 * trough_window


def test_diurnal_rate_at_peak_and_trough():
    process = DiurnalPoisson(base_rate=1.0, amplitude=0.5, peak_at_s=0.0)
    assert process.rate_at(0.0) == pytest.approx(1.5)
    assert process.rate_at(43200.0) == pytest.approx(0.5)


def test_diurnal_validation():
    with pytest.raises(ValueError):
        DiurnalPoisson(base_rate=0.0)
    with pytest.raises(ValueError):
        DiurnalPoisson(base_rate=1.0, amplitude=1.0)


def test_mmpp_mean_rate_between_states():
    process = MMPPBurst(calm_rate=0.01, burst_rate=1.0, mean_calm_s=900, mean_burst_s=100)
    times = draw(process, 5000, seed=3)
    # Long-run rate: calm share 0.9 at 0.01/s plus burst share 0.1 at 1/s.
    assert 0.05 < len(times) / times[-1] < 0.2


def test_mmpp_produces_bursts():
    process = MMPPBurst(
        calm_rate=0.005, burst_rate=2.0, mean_calm_s=1000.0, mean_burst_s=200.0
    )
    times = draw(process, 5000, seed=5)
    gaps = [b - a for a, b in zip(times, times[1:])]
    short = sum(1 for gap in gaps if gap < 2.0)
    long = sum(1 for gap in gaps if gap > 50.0)
    # Bimodal inter-arrivals: many short gaps (bursts) and some very long.
    assert short > 1000
    assert long > 10


def test_mmpp_validation():
    with pytest.raises(ValueError):
        MMPPBurst(calm_rate=0.0, burst_rate=1.0, mean_calm_s=1, mean_burst_s=1)
    with pytest.raises(ValueError):
        MMPPBurst(calm_rate=1.0, burst_rate=0.5, mean_calm_s=1, mean_burst_s=1)


def test_arrivals_deterministic_under_seed():
    assert draw(Poisson(1.0), 100, seed=9) == draw(Poisson(1.0), 100, seed=9)
