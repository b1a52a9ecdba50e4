"""Reproducible named random streams.

Every stochastic component draws from its own stream, derived from the
scenario seed and a stable name, so that changing one component's draw
pattern (e.g. adding a new operation type) does not perturb the others —
the standard variance-reduction discipline for simulation studies.
"""

from __future__ import annotations

import hashlib
import math
import random
import typing


def _derive_seed(root_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A factory of independent, reproducibly-seeded ``random.Random`` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The stream for ``name``, created on first use."""
        if name not in self._streams:
            self._streams[name] = random.Random(_derive_seed(self.seed, name))
        return self._streams[name]

    def spawn(self, name: str) -> "RandomStreams":
        """A child factory whose streams are independent of this one's."""
        return RandomStreams(_derive_seed(self.seed, f"spawn:{name}"))


#: Draws prefetched per refill by :func:`uniforms`, :func:`exponentials`
#: and :meth:`repro.workloads.lifetimes.LifetimeModel.draws`.
CHUNK = 512


def uniforms(rng: random.Random) -> typing.Callable[[], float]:
    """``rng.random()`` draws, prefetched in chunks and served in draw order.

    Returns the bound ``__next__`` of an endless generator that yields
    each chunk through ``yield from``: a C-level resume per draw, with no
    method dispatch or index bookkeeping. The sampler runs ahead of
    ``rng``, so it must own the stream: any other draw from ``rng`` would
    land between chunks, not where a per-event draw would.
    """

    def serve() -> typing.Iterator[float]:
        draw = rng.random
        span = range(CHUNK)
        while True:
            yield from [draw() for _ in span]

    return serve().__next__


def exponentials(rng: random.Random, lambd: float) -> typing.Callable[[], float]:
    """Prefetched exponential variates, bit for bit ``rng.expovariate(lambd)``.

    Same ownership rule as :func:`uniforms`. numpy is no substitute: its
    generators are not draw-compatible with :class:`random.Random`.
    """
    if lambd <= 0:
        raise ValueError("lambd must be positive")

    def serve() -> typing.Iterator[float]:
        draw = rng.random
        log = math.log
        span = range(CHUNK)
        while True:
            # random.Random.expovariate's arithmetic: a division by lambd,
            # not a multiply by its reciprocal, so values match to the bit.
            yield from [-log(1.0 - draw()) / lambd for _ in span]

    return serve().__next__


def lognormal_from_median(rng: random.Random, median: float, sigma: float) -> float:
    """Lognormal variate parameterized by its median and shape ``sigma``.

    Operation service times in management planes are heavy-tailed; the
    companion ISCA'10 study reports latency distributions well described by
    a lognormal body. Parameterizing by the median keeps profiles readable.
    """
    if median <= 0:
        return 0.0
    return median * math.exp(rng.gauss(0.0, sigma))


def bounded(value: float, low: float, high: float) -> float:
    """Clamp a variate into [low, high]."""
    return max(low, min(high, value))


def service_time(rng: random.Random, median: float, sigma: float) -> float:
    """A control-plane service time: a lognormal draw around ``median``,
    clamped to [median/4, 10 x median].

    The one service-time draw of the CPU pool, the database and the host
    agents. A median <= 0 gives 0.0 without touching ``rng``.
    """
    if median <= 0:
        return 0.0
    draw = median * math.exp(rng.gauss(0.0, sigma))
    return max(median * 0.25, min(median * 10.0, draw))


def pareto(rng: random.Random, shape: float, scale: float) -> float:
    """Pareto variate (heavy tail for VM lifetimes)."""
    if shape <= 0 or scale <= 0:
        raise ValueError("shape and scale must be positive")
    return scale * (rng.random() ** (-1.0 / shape))
