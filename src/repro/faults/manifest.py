"""Machine-readable ground truth for injected fault windows.

The triage scorer (:mod:`repro.triage.scoring`) needs to know, for every
run, *what was actually injected where and when* — the oracle it grades
verdicts against. Two sources produce :class:`GroundTruthManifest`\\ s:

- :meth:`~repro.faults.schedule.FaultSchedule.ground_truth` — the
  *planned* view, straight off the schedule. Targets are the requested
  names; random picks (empty target tuples) show up as empty targets,
  since the schedule does not know what the injector will draw.
- :meth:`~repro.faults.injector.FaultInjector.ground_truth` — the
  *resolved* view, recorded at arm time: target names as actually drawn
  from the live infrastructure, start stamped at the arm instant, end
  updated to the actual disarm instant (planned end if the run stops
  while the window is still armed).

Windows serialize to plain dicts / JSON and round-trip exactly (pinned by
``tests/faults/test_manifest.py``), so a chaos run can persist its oracle
next to its verdicts.
"""

from __future__ import annotations

import dataclasses
import json
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.faults.schedule import FaultSpec

#: Spec field holding the headline intensity per fault kind. Kinds not
#: listed (crashes, outages, partitions) are binary: intensity 1.0.
_INTENSITY_FIELD: dict[str, str] = {
    "agent_degrade": "drop_rate",
    "db_slowdown": "factor",
    "copy_flakiness": "fail_rate",
    "message_drop": "rate",
    "message_duplicate": "rate",
    "message_delay": "delay_s",
    "message_reorder": "rate",
}

#: Spec fields that name targets or the window itself — everything else
#: is an intensity/shape parameter worth keeping in ``params``.
_NON_PARAM_FIELDS = frozenset(
    {"start_s", "duration_s", "hosts", "datastores", "shards", "topics"}
)


@dataclasses.dataclass(frozen=True)
class GroundTruthWindow:
    """One injected fault window, as the scorer sees it."""

    kind: str
    start_s: float
    end_s: float
    targets: tuple[str, ...] = ()
    intensity: float = 1.0
    params: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.end_s < self.start_s:
            raise ValueError(
                f"window ends before it starts ({self.start_s} -> {self.end_s})"
            )

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def active(self, at_s: float, grace_s: float = 0.0) -> bool:
        """Was this window armed at ``at_s`` (+ trailing grace)?"""
        return self.start_s <= at_s <= self.end_s + grace_s

    def overlaps(self, other: "GroundTruthWindow") -> bool:
        return self.start_s < other.end_s and other.start_s < self.end_s

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "targets": list(self.targets),
            "intensity": self.intensity,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, entry: dict) -> "GroundTruthWindow":
        return cls(
            kind=entry["kind"],
            start_s=float(entry["start_s"]),
            end_s=float(entry["end_s"]),
            targets=tuple(entry.get("targets", ())),
            intensity=float(entry.get("intensity", 1.0)),
            params=dict(entry.get("params", {})),
        )


def window_from_spec(
    spec: "FaultSpec",
    start_s: float | None = None,
    end_s: float | None = None,
    targets: typing.Sequence[str] | None = None,
) -> GroundTruthWindow:
    """Build one manifest window from a spec (+ optional resolved facts)."""
    entry = dataclasses.asdict(spec)
    params = {
        key: value for key, value in entry.items() if key not in _NON_PARAM_FIELDS
    }
    field = _INTENSITY_FIELD.get(spec.kind)
    intensity = float(entry[field]) if field is not None else 1.0
    if targets is None:
        # Planned view: requested names only; random picks are unresolved.
        targets = ()
        for name in ("hosts", "datastores", "shards", "topics"):
            if entry.get(name):
                targets = tuple(entry[name])
                break
    return GroundTruthWindow(
        kind=spec.kind,
        start_s=spec.start_s if start_s is None else start_s,
        end_s=spec.end_s if end_s is None else end_s,
        targets=tuple(targets),
        intensity=intensity,
        params=params,
    )


class GroundTruthManifest:
    """An ordered set of injected windows: the triage scoring oracle."""

    def __init__(self, windows: typing.Iterable[GroundTruthWindow] = ()) -> None:
        self.windows: list[GroundTruthWindow] = list(windows)

    def __len__(self) -> int:
        return len(self.windows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroundTruthManifest):
            return NotImplemented
        return self.windows == other.windows

    def __iter__(self) -> typing.Iterator[GroundTruthWindow]:
        return iter(self.windows)

    def add(self, window: GroundTruthWindow) -> "GroundTruthManifest":
        self.windows.append(window)
        return self

    def kinds(self) -> list[str]:
        return sorted({window.kind for window in self.windows})

    def active_at(self, at_s: float, grace_s: float = 0.0) -> list[GroundTruthWindow]:
        """Windows armed at ``at_s``, nearest start first."""
        return sorted(
            (w for w in self.windows if w.active(at_s, grace_s)),
            key=lambda w: (abs(at_s - w.start_s), w.start_s, w.kind),
        )

    # -- (de)serialization -------------------------------------------------

    def to_dicts(self) -> list[dict]:
        return [window.to_dict() for window in self.windows]

    @classmethod
    def from_dicts(cls, entries: typing.Sequence[dict]) -> "GroundTruthManifest":
        return cls(GroundTruthWindow.from_dict(entry) for entry in entries)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dicts(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "GroundTruthManifest":
        return cls.from_dicts(json.loads(text))

    def describe(self) -> list[str]:
        return [
            f"{w.start_s:8.1f}-{w.end_s:8.1f}s  {w.kind:<18} "
            f"x{w.intensity:g}  [{','.join(w.targets) or '*'}]"
            for w in self.windows
        ]
