"""Arrival processes: Poisson, diurnal, and bursty (MMPP).

Self-service portals show strong diurnal cycles (tenants are humans) with
superimposed bursts (CI farms, classroom labs deploying many vApps at
once). The MMPP two-state process captures the bursts; the diurnal
Poisson captures the daily envelope.

A process is an immutable value; ``process.sampler(rng)`` returns its
``next_arrival(now)``, which draws prefetched variates from ``rng`` (see
:func:`repro.sim.random.uniforms`) and holds any state the process
advances, such as the MMPP phase. Each draw goes through the same
arithmetic, in the same order, as the textbook per-event algorithm over
``rng.expovariate``/``rng.random``, so arrival times match it bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
import random
import typing

from repro.sim.random import exponentials, uniforms

NextArrival = typing.Callable[[float], float]

#: The diurnal envelope's period (one day) and its peak time (14:00).
DIURNAL_PERIOD_S = 86_400.0
DIURNAL_PEAK_AT_S = 14 * 3600.0


class ArrivalProcess:
    """Base: an arrival process, sampled through :meth:`sampler`."""

    def sampler(self, rng: random.Random) -> NextArrival:
        """``next_arrival(now)``: the first arrival after ``now``.

        The sampler runs ahead of ``rng``, so it must own that stream.
        Each call to ``sampler`` starts an independent sequence.
        """
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class Poisson(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate`` per second."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def sampler(self, rng: random.Random) -> NextArrival:
        gap = exponentials(rng, self.rate)

        def next_arrival(now: float) -> float:
            return now + gap()

        return next_arrival


@dataclasses.dataclass(frozen=True)
class DiurnalPoisson(ArrivalProcess):
    """Non-homogeneous Poisson with a sinusoidal daily envelope.

    Rate(t) = base · (1 + amplitude · cos(2π (t - peak) / period)), with
    the period and peak of :data:`DIURNAL_PERIOD_S` and
    :data:`DIURNAL_PEAK_AT_S`, sampled by thinning. ``amplitude`` in [0, 1): 0 is flat, 0.9 nearly shuts down
    overnight.
    """

    base_rate: float
    amplitude: float = 0.6

    def __post_init__(self) -> None:
        if self.base_rate <= 0:
            raise ValueError("base_rate must be positive")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")

    def rate_at(self, time: float) -> float:
        phase = 2.0 * math.pi * (time - DIURNAL_PEAK_AT_S) / DIURNAL_PERIOD_S
        return self.base_rate * (1.0 + self.amplitude * math.cos(phase))

    def sampler(self, rng: random.Random) -> NextArrival:
        draw = uniforms(rng)
        log = math.log
        rate_at = self.rate_at
        ceiling = self.base_rate * (1.0 + self.amplitude)

        def next_arrival(now: float) -> float:
            # Thinning (Lewis & Shedler) against the max rate: a candidate
            # gap, expovariate(ceiling), then one uniform for the accept test.
            time = now
            while True:
                time += -log(1.0 - draw()) / ceiling
                if draw() <= rate_at(time) / ceiling:
                    return time

        return next_arrival


@dataclasses.dataclass(frozen=True)
class MMPPBurst(ArrivalProcess):
    """Two-state Markov-modulated Poisson process: calm / burst.

    Dwell times in each state are exponential; arrivals are Poisson at the
    state's rate. Each sampler holds its own state, advanced lazily as
    arrivals are drawn; it opens with a calm phase that ends at t=0, so
    the first phase it draws a dwell for is a burst.
    """

    calm_rate: float
    burst_rate: float
    mean_calm_s: float
    mean_burst_s: float

    def __post_init__(self) -> None:
        if min(self.calm_rate, self.burst_rate, self.mean_calm_s, self.mean_burst_s) <= 0:
            raise ValueError("all MMPP parameters must be positive")
        if self.burst_rate <= self.calm_rate:
            raise ValueError("burst_rate must exceed calm_rate")

    def sampler(self, rng: random.Random) -> NextArrival:
        draw = uniforms(rng)
        log = math.log
        calm_rate, burst_rate = self.calm_rate, self.burst_rate
        mean_calm_s, mean_burst_s = self.mean_calm_s, self.mean_burst_s
        in_burst = False
        state_until = 0.0

        def next_arrival(now: float) -> float:
            nonlocal in_burst, state_until
            time = now
            while True:
                while time >= state_until:
                    in_burst = not in_burst
                    dwell = mean_burst_s if in_burst else mean_calm_s
                    # expovariate(1.0 / dwell), bit for bit.
                    state_until += -log(1.0 - draw()) / (1.0 / dwell)
                rate = burst_rate if in_burst else calm_rate
                candidate = time + -log(1.0 - draw()) / rate
                if candidate <= state_until:
                    return candidate
                # State flips before the candidate arrival: redraw from the
                # flip point under the new state's rate.
                time = state_until

        return next_arrival
