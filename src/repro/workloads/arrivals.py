"""Arrival processes: Poisson, diurnal, and bursty (MMPP).

Self-service portals show strong diurnal cycles (tenants are humans) with
superimposed bursts (CI farms, classroom labs deploying many vApps at
once). The MMPP two-state process captures the bursts; the diurnal
Poisson captures the daily envelope.
"""

from __future__ import annotations

import math
import random

from repro.workloads import sampling


class ArrivalProcess:
    """Base: generates the next arrival time after ``now``."""

    def next_arrival(self, now: float, rng: random.Random) -> float:
        raise NotImplementedError

    def batched(self, rng: random.Random, batch: int = 512) -> "sampling.BatchedArrivals":
        """A batched adapter drawing prefetched variates from ``rng``.

        The adapter's ``next_arrival(now)`` consumes the stream in exactly
        the per-event draw order, so schedules are byte-identical; it owns
        any lazily-advanced state, leaving this process untouched.
        """
        raise NotImplementedError


class Poisson(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate`` per second."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate

    def next_arrival(self, now: float, rng: random.Random) -> float:
        return now + rng.expovariate(self.rate)

    def batched(self, rng: random.Random, batch: int = 512) -> "sampling.BatchedPoisson":
        return sampling.BatchedPoisson(self, rng, batch)


class DiurnalPoisson(ArrivalProcess):
    """Non-homogeneous Poisson with a sinusoidal daily envelope.

    Rate(t) = base · (1 + amplitude · cos(2π (t - peak) / period)), sampled
    by thinning. ``amplitude`` in [0, 1): 0 is flat, 0.9 nearly shuts down
    overnight.
    """

    def __init__(
        self,
        base_rate: float,
        amplitude: float = 0.6,
        period_s: float = 86_400.0,
        peak_at_s: float = 14 * 3600.0,
    ) -> None:
        if base_rate <= 0:
            raise ValueError("base_rate must be positive")
        if not 0.0 <= amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        self.base_rate = base_rate
        self.amplitude = amplitude
        self.period_s = period_s
        self.peak_at_s = peak_at_s

    def rate_at(self, time: float) -> float:
        phase = 2.0 * math.pi * (time - self.peak_at_s) / self.period_s
        return self.base_rate * (1.0 + self.amplitude * math.cos(phase))

    def next_arrival(self, now: float, rng: random.Random) -> float:
        # Thinning (Lewis & Shedler) against the max rate.
        ceiling = self.base_rate * (1.0 + self.amplitude)
        time = now
        while True:
            time += rng.expovariate(ceiling)
            if rng.random() <= self.rate_at(time) / ceiling:
                return time

    def batched(self, rng: random.Random, batch: int = 512) -> "sampling.BatchedDiurnal":
        return sampling.BatchedDiurnal(self, rng, batch)


class MMPPBurst(ArrivalProcess):
    """Two-state Markov-modulated Poisson process: calm / burst.

    Dwell times in each state are exponential; arrivals are Poisson at the
    state's rate. State is advanced lazily as arrivals are drawn.
    """

    def __init__(
        self,
        calm_rate: float,
        burst_rate: float,
        mean_calm_s: float,
        mean_burst_s: float,
    ) -> None:
        if min(calm_rate, burst_rate, mean_calm_s, mean_burst_s) <= 0:
            raise ValueError("all MMPP parameters must be positive")
        if burst_rate <= calm_rate:
            raise ValueError("burst_rate must exceed calm_rate")
        self.calm_rate = calm_rate
        self.burst_rate = burst_rate
        self.mean_calm_s = mean_calm_s
        self.mean_burst_s = mean_burst_s
        self._in_burst = False
        self._state_until = 0.0

    def _advance_state(self, time: float, rng: random.Random) -> None:
        while time >= self._state_until:
            self._in_burst = not self._in_burst
            dwell = self.mean_burst_s if self._in_burst else self.mean_calm_s
            self._state_until += rng.expovariate(1.0 / dwell)

    def next_arrival(self, now: float, rng: random.Random) -> float:
        time = now
        while True:
            self._advance_state(time, rng)
            rate = self.burst_rate if self._in_burst else self.calm_rate
            candidate = time + rng.expovariate(rate)
            if candidate <= self._state_until:
                return candidate
            # State flips before the candidate arrival: redraw from the
            # flip point under the new state's rate.
            time = self._state_until

    def batched(self, rng: random.Random, batch: int = 512) -> "sampling.BatchedMMPP":
        return sampling.BatchedMMPP(self, rng, batch)
