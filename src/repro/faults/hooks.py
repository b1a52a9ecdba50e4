"""The uniform fault-injection hook.

Every injectable component (host agent, database, copy engine, management
server, message bus) owns one :class:`FaultHook`. The components that run
operations consult it at the top of each one via :meth:`FaultHook.fire`,
which composes three fault shapes:

- **probabilistic drops** (``set_drop``) — each fire fails with probability
  ``rate``;
- **latency degradation** (``set_latency``) — ``fire`` returns a service
  time multiplier;
- **keyed outages** (``block``) — fires against a blocked key (or any key,
  via ``"*"``) fail unconditionally.

The message bus reads the hook instead of firing it, rolling its own
random stream at each hop: ``drop_rate`` loses a copy in transit,
``duplicate_rate`` and ``reorder_rate`` clone a delivered message or let
it jump the queue, ``delay_s`` stalls a publish, and an all-keys block
partitions every topic.

Every shape is registered under an opaque *source* token so overlapping
fault windows compose: latency factors multiply, drop, duplicate and
reorder rates combine as independent events, delays take the max, and
disarming one window leaves the others armed. The
:class:`~repro.faults.injector.FaultInjector` uses a fresh token per
armed window.
"""

from __future__ import annotations

import random
import typing

from repro.faults.errors import InjectedFault

ALL_KEYS = "*"


def _combined(rates: typing.Iterable[float]) -> float:
    """The probability that at least one of independent events happens."""
    survive = 1.0
    for rate in rates:
        survive *= 1.0 - rate
    return 1.0 - survive


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
        self._duplicates: dict[object, float] = {}
        self._reorders: dict[object, float] = {}
        self._delays: dict[object, float] = {}
        self._tables = (
            self._drops, self._latency, self._blocks,
            self._duplicates, self._reorders, self._delays,
        )

    # -- arming ------------------------------------------------------------

    def set_drop(self, source: object, rate: float) -> None:
        """Fail each fire with probability ``rate`` while ``source`` is armed."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"drop rate must be in [0, 1], got {rate}")
        self._drops[source] = rate

    def set_latency(self, source: object, factor: float) -> None:
        """Multiply service times by ``factor`` while ``source`` is armed."""
        if factor < 1.0:
            raise ValueError(f"latency factor must be >= 1.0, got {factor}")
        self._latency[source] = factor

    def block(self, source: object, key: str = ALL_KEYS) -> None:
        """Fail every fire whose key matches (``"*"`` matches all keys)."""
        self._blocks[source] = key

    def set_duplicate(self, source: object, rate: float) -> None:
        """Clone each delivered message with probability ``rate``."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"duplicate rate must be in [0, 1], got {rate}")
        self._duplicates[source] = rate

    def set_reorder(self, source: object, rate: float) -> None:
        """Let each enqueued message jump the queue with probability ``rate``."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"reorder rate must be in [0, 1], got {rate}")
        self._reorders[source] = rate

    def set_delay(self, source: object, delay_s: float) -> None:
        """Stall each publish ``delay_s`` seconds while ``source`` is armed."""
        if delay_s < 0.0:
            raise ValueError(f"delay must be >= 0, got {delay_s}")
        self._delays[source] = delay_s

    def disarm(self, source: object) -> None:
        """Remove every fault registered under ``source``."""
        for table in self._tables:
            table.pop(source, None)

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
        return _combined(self._drops.values())

    @property
    def duplicate_rate(self) -> float:
        return _combined(self._duplicates.values())

    @property
    def reorder_rate(self) -> float:
        return _combined(self._reorders.values())

    @property
    def delay_s(self) -> float:
        """The longest armed delay (overlapping delays do not add up)."""
        return max(self._delays.values(), default=0.0)

    @property
    def armed(self) -> bool:
        return bool(
            self._drops or self._latency or self._blocks
            or self._duplicates or self._reorders or self._delays
        )

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
