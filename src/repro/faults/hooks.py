"""The uniform fault-injection hook.

Every injectable component (host agent, database, copy engine, management
server) owns one :class:`FaultHook` and consults it at the top of each
operation via :meth:`FaultHook.fire`. The hook composes three fault shapes:

- **probabilistic drops** (``set_drop``) — each fire fails with probability
  ``rate``;
- **latency degradation** (``set_latency``) — ``fire`` returns a service
  time multiplier;
- **keyed outages** (``block``) — fires against a blocked key (or any key,
  via ``"*"``) fail unconditionally.

Drops and latency factors are registered under an opaque *source* token so
overlapping fault windows compose: latency factors multiply, drop rates
combine as independent events, and disarming one window leaves the others
armed. The :class:`~repro.faults.injector.FaultInjector` uses a fresh
token per armed window.
"""

from __future__ import annotations

import random
import typing

from repro.faults.errors import InjectedFault

ALL_KEYS = "*"


class FaultHook:
    """One injection point; see module docstring for the fault shapes."""

    def __init__(
        self,
        sim,
        name: str = "",
        rng: random.Random | None = None,
        error_factory: typing.Callable[[str], BaseException] = InjectedFault,
    ) -> None:
        self.sim = sim
        self.name = name
        self.rng = rng or random.Random(0)
        self.error_factory = error_factory
        self.injected = 0
        self._drops: dict[object, float] = {}
        self._latency: dict[object, float] = {}
        self._blocks: dict[object, str] = {}

    # -- arming ------------------------------------------------------------

    def set_drop(self, source: object, rate: float) -> None:
        """Fail each fire with probability ``rate`` while ``source`` is armed."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"drop rate must be in [0, 1], got {rate}")
        self._drops[source] = rate

    def clear_drop(self, source: object) -> None:
        self._drops.pop(source, None)

    def set_latency(self, source: object, factor: float) -> None:
        """Multiply service times by ``factor`` while ``source`` is armed."""
        if factor < 1.0:
            raise ValueError(f"latency factor must be >= 1.0, got {factor}")
        self._latency[source] = factor

    def clear_latency(self, source: object) -> None:
        self._latency.pop(source, None)

    def block(self, source: object, key: str = ALL_KEYS) -> None:
        """Fail every fire whose key matches (``"*"`` matches all keys)."""
        self._blocks[source] = key

    def unblock(self, source: object) -> None:
        self._blocks.pop(source, None)

    def disarm(self, source: object) -> None:
        """Remove every fault registered under ``source``."""
        self.clear_drop(source)
        self.clear_latency(source)
        self.unblock(source)

    # -- introspection -----------------------------------------------------

    @property
    def latency_factor(self) -> float:
        factor = 1.0
        for value in self._latency.values():
            factor *= value
        return factor

    @property
    def drop_rate(self) -> float:
        """Combined drop probability across armed sources."""
        survive = 1.0
        for rate in self._drops.values():
            survive *= 1.0 - rate
        return 1.0 - survive

    @property
    def armed(self) -> bool:
        return bool(self._drops or self._latency or self._blocks)

    def blocked(self, key: str | None = None) -> bool:
        for blocked_key in self._blocks.values():
            if blocked_key == ALL_KEYS or (key is not None and blocked_key == key):
                return True
        return False

    # -- the injection point ----------------------------------------------

    def fire(self, key: str | None = None) -> float:
        """Apply the hook once: raise an injected error or return the
        current latency multiplier.

        ``key`` scopes keyed outages (e.g. a datastore entity id); pass
        ``None`` at unkeyed injection points.
        """
        if self.blocked(key):
            self.injected += 1
            scope = key if key is not None else "all"
            raise self.error_factory(f"{self.name}: outage covering {scope!r}")
        rate = self.drop_rate
        if rate > 0.0 and self.rng.random() < rate:
            self.injected += 1
            raise self.error_factory(f"{self.name}: call dropped (rate {rate:.2f})")
        return self.latency_factor
