"""VM lifetime models: how long a deployed VM lives before deletion.

Cloud dev/test VMs live hours-to-days with a heavy tail; classic
datacenter VMs live months. The contrast drives R-F10 and, through the
driver, the destroy rate in the operation mixes.
"""

from __future__ import annotations

import dataclasses
import math
import random
import typing

from repro.sim.random import CHUNK, lognormal_from_median, pareto

#: The Pareto shape of the long-lived tail.
TAIL_SHAPE = 1.2


@dataclasses.dataclass(frozen=True)
class LifetimeModel:
    """A mixture: lognormal body plus a Pareto tail.

    ``tail_fraction`` of VMs are long-lived (Pareto of shape
    :data:`TAIL_SHAPE`, heavy tail from ``tail_scale_s``); the rest draw
    lognormal around ``median_s``.
    """

    median_s: float
    sigma: float = 1.0
    tail_fraction: float = 0.10
    tail_scale_s: float = 7 * 86_400.0

    def __post_init__(self) -> None:
        if self.median_s <= 0:
            raise ValueError("median_s must be positive")
        if not 0.0 <= self.tail_fraction <= 1.0:
            raise ValueError("tail_fraction must be in [0, 1]")

    def sample(self, rng: random.Random) -> float:
        if rng.random() < self.tail_fraction:
            return pareto(rng, TAIL_SHAPE, self.tail_scale_s)
        return lognormal_from_median(rng, self.median_s, self.sigma)

    def draws(self, rng: random.Random) -> typing.Callable[[], float]:
        """:meth:`sample` draws from ``rng``, prefetched ``CHUNK`` at a time.

        The stream rule of :func:`repro.sim.random.uniforms` applies: the
        returned callable must own ``rng``.
        """

        def serve() -> typing.Iterator[float]:
            sample_batch = self.sample_batch
            while True:
                yield from sample_batch(rng, CHUNK)

        return serve().__next__

    def sample_batch(self, rng: random.Random, count: int) -> list[float]:
        """``count`` draws, identical to ``count`` calls of :meth:`sample`.

        The mixture formulas are inlined over locally-bound callables so a
        hyperscale fleet seeding pays one function call per *batch* rather
        than three per VM; the branch structure and draw order match
        :meth:`sample` exactly, so values are bit-identical. That includes
        the Box-Muller body of ``random.Random.gauss`` (mu=0), inlined with
        the same ``gauss_next`` spare-value cache — read on entry, written
        back on exit — so interleaving batched and per-event draws on one
        rng still yields the same stream.
        """
        draw = rng.random
        exp = math.exp
        log = math.log
        sqrt = math.sqrt
        cos = math.cos
        sin = math.sin
        twopi = 2.0 * math.pi
        tail_fraction = self.tail_fraction
        tail_exponent = -1.0 / TAIL_SHAPE
        tail_scale = self.tail_scale_s
        median = self.median_s
        sigma = self.sigma
        spare = rng.gauss_next
        out: list[float] = []
        append = out.append
        for _ in range(count):
            if draw() < tail_fraction:
                append(tail_scale * (draw() ** tail_exponent))
            else:
                z = spare
                if z is None:
                    x2pi = draw() * twopi
                    g2rad = sqrt(-2.0 * log(1.0 - draw()))
                    z = cos(x2pi) * g2rad
                    spare = sin(x2pi) * g2rad
                else:
                    spare = None
                append(median * exp(0.0 + z * sigma))
        rng.gauss_next = spare
        return out


# Dev/test cloud: median 6 hours, long tail of forgotten VMs.
CLOUD_A_LIFETIME = LifetimeModel(median_s=6 * 3600.0, sigma=1.2, tail_fraction=0.08)

# Production cloud: median 2 days.
CLOUD_B_LIFETIME = LifetimeModel(median_s=2 * 86_400.0, sigma=1.0, tail_fraction=0.15)

# Classic datacenter: median 60 days, most VMs effectively permanent.
CLASSIC_DC_LIFETIME = LifetimeModel(
    median_s=60 * 86_400.0,
    sigma=0.8,
    tail_fraction=0.30,
    tail_scale_s=180 * 86_400.0,
)
