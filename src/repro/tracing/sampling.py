"""Tail-based trace retention: full-fidelity tracing on a span budget.

The plain :class:`~repro.tracing.tracer.Tracer` retains every span it
ever created, which is exactly right for a 48-clone storm and exactly
wrong at hyperscale — a million-VM cell would drown in span objects long
before the workload finishes. Tail sampling keeps the *decision* until a
trace is complete (its root span finishes), when everything worth keeping
about it is known, and then applies keep-policies in priority order:

- **errors** — any span in the tree carries an ``error`` tag;
- **retries** — the root ran more than one attempt (``attempts`` tag) or
  the tree contains a ``retry``-phase span;
- **slow** — the root's duration clears a rolling quantile of all root
  durations seen so far (a :class:`~repro.sim.stats.LogHistogram`, so the
  threshold costs O(buckets), not O(samples));
- a bounded **reservoir of normals** — an unbiased sample of healthy
  traces for baseline comparison, drawn with a *private* RNG so sampling
  can never perturb the simulation's random streams.

Retained trees live under a global **span budget**; when admitting a tree
would blow it, lower-value trees are evicted first (normals, then slow,
then retried, then errored — oldest first within a class). A single tree
larger than the whole budget is still admitted: the incident it describes
is worth more than the bound.

:class:`SampledTracer` plugs the sampler into the tracer's finish hook.
It is schedule-neutral by construction — it only reacts to spans the
instrumentation already creates, allocates no simulator events, and draws
no randomness from the workload's streams (pinned by the recorder
neutrality differential). ``python -m repro trace --sample <budget>``
demos it; the R-X7 exhibit measures the retention ratio.
"""

from __future__ import annotations

import dataclasses
import random
import typing
from collections import deque

from repro.sim.stats import LogHistogram
from repro.tracing.span import PHASE_RETRY, Span
from repro.tracing.tracer import Tracer

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

# Keep classes, strongest claim first.
KEEP_ERROR = "error"
KEEP_RETRY = "retry"
KEEP_SLOW = "slow"
KEEP_NORMAL = "normal"
KEEP_CLASSES = (KEEP_ERROR, KEEP_RETRY, KEEP_SLOW, KEEP_NORMAL)

#: Budget-eviction order: the least diagnostic trees go first.
EVICTION_ORDER = (KEEP_NORMAL, KEEP_SLOW, KEEP_RETRY, KEEP_ERROR)


@dataclasses.dataclass(frozen=True)
class RetentionPolicy:
    """Knobs for the tail sampler.

    ``span_budget`` bounds total retained spans (not trees): a tree costs
    what it weighs. ``slow_quantile`` is the rolling root-duration
    quantile above which a trace counts as slow; the threshold only arms
    after ``min_slow_samples`` roots so early traces aren't all "slow"
    relative to an empty distribution. ``normal_reservoir`` bounds the
    healthy-trace sample; ``reservoir_seed`` seeds the private RNG.
    """

    span_budget: int = 4096
    slow_quantile: float = 0.95
    min_slow_samples: int = 20
    normal_reservoir: int = 16
    reservoir_seed: int = 0

    def __post_init__(self) -> None:
        if self.span_budget < 1:
            raise ValueError("span_budget must be >= 1")
        if not 0.0 < self.slow_quantile < 1.0:
            raise ValueError("slow_quantile must be in (0, 1)")
        if self.min_slow_samples < 1:
            raise ValueError("min_slow_samples must be >= 1")
        if self.normal_reservoir < 0:
            raise ValueError("normal_reservoir must be >= 0")


class RetainedTree:
    """One sealed, retained trace: root, all its spans, and why it stayed."""

    __slots__ = ("root", "spans", "keep", "sealed_at")

    def __init__(
        self, root: Span, spans: list[Span], keep: str, sealed_at: float
    ) -> None:
        self.root = root
        self.spans = spans
        self.keep = keep
        self.sealed_at = sealed_at

    @property
    def trace_id(self) -> int:
        return self.root.trace_id

    def overlaps(self, lo: float, hi: float) -> bool:
        """Does any simulated time in this tree fall inside [lo, hi]?"""
        end = self.root.end if self.root.end is not None else self.root.start
        return self.root.start <= hi and end >= lo

    def __repr__(self) -> str:
        return (
            f"<RetainedTree trace={self.trace_id} keep={self.keep} "
            f"spans={len(self.spans)}>"
        )


class TailSampler:
    """Classifies sealed trace trees and holds the bounded retained set."""

    def __init__(self, policy: RetentionPolicy | None = None) -> None:
        self.policy = policy if policy is not None else RetentionPolicy()
        # Private stream: reservoir decisions must never touch the
        # simulation's RNGs or the schedule would shift with sampling on.
        self._rng = random.Random(self.policy.reservoir_seed)
        self._durations = LogHistogram("root_durations")
        self._by_class: dict[str, deque[RetainedTree]] = {
            cls: deque() for cls in KEEP_CLASSES
        }
        self._by_trace: dict[int, RetainedTree] = {}
        self._span_count = 0
        self._normal_seen = 0
        self.offered = 0
        #: Total spans across every offered tree — what an unbounded
        #: tracer would have retained; the denominator of the R-X7 ratio.
        self.offered_spans = 0
        self.admitted = 0
        self.dropped = 0
        self.evicted = 0

    # -- classification ------------------------------------------------------

    def slow_threshold(self) -> float | None:
        """Rolling slow cut, or None until enough roots have sealed."""
        if self._durations.count < self.policy.min_slow_samples:
            return None
        return self._durations.quantile(self.policy.slow_quantile)

    def classify(self, root: Span, spans: list[Span]) -> str:
        """Which keep class a sealed tree falls in (strongest claim wins)."""
        retried = False
        for span in spans:
            if "error" in span.tags:
                return KEEP_ERROR
            if span.phase == PHASE_RETRY:
                retried = True
        if root.tags.get("attempts", 1) > 1 or retried:
            return KEEP_RETRY
        threshold = self.slow_threshold()
        if threshold is not None and root.duration >= threshold:
            return KEEP_SLOW
        return KEEP_NORMAL

    # -- admission -----------------------------------------------------------

    def offer(
        self, root: Span, spans: list[Span], sealed_at: float
    ) -> tuple[RetainedTree | None, list[RetainedTree]]:
        """Offer one sealed tree; returns (admitted tree or None, evicted)."""
        self.offered += 1
        self.offered_spans += len(spans)
        keep = self.classify(root, spans)
        # Record *after* classifying: a root never competes against its
        # own duration when the slow threshold is computed.
        self._durations.record(max(0.0, root.duration))
        evicted: list[RetainedTree] = []
        if keep == KEEP_NORMAL:
            self._normal_seen += 1
            bucket = self._by_class[KEEP_NORMAL]
            if self.policy.normal_reservoir == 0:
                self.dropped += 1
                return None, evicted
            if len(bucket) >= self.policy.normal_reservoir:
                # Classic reservoir: keep the newcomer with probability
                # k/n, displacing a uniformly-chosen incumbent.
                if (
                    self._rng.random()
                    < self.policy.normal_reservoir / self._normal_seen
                ):
                    victim_index = self._rng.randrange(len(bucket))
                    victim = bucket[victim_index]
                    del bucket[victim_index]
                    self._discard(victim)
                    evicted.append(victim)
                else:
                    self.dropped += 1
                    return None, evicted
        tree = RetainedTree(root, spans, keep, sealed_at)
        self._by_class[keep].append(tree)
        self._by_trace[tree.trace_id] = tree
        self._span_count += len(spans)
        self.admitted += 1
        evicted.extend(self._enforce_budget(protect=tree))
        return tree, evicted

    def _discard(self, tree: RetainedTree) -> None:
        self._by_trace.pop(tree.trace_id, None)
        self._span_count -= len(tree.spans)
        self.evicted += 1

    def _enforce_budget(self, protect: RetainedTree) -> list[RetainedTree]:
        """Evict until the span budget holds; never evict ``protect``.

        A single oversized tree is therefore still admitted — the budget
        bounds steady state, not the worst single incident.
        """
        out: list[RetainedTree] = []
        budget = self.policy.span_budget
        for cls in EVICTION_ORDER:
            bucket = self._by_class[cls]
            while self._span_count > budget and bucket:
                if bucket[0] is protect:
                    if len(bucket) == 1:
                        break
                    victim = bucket[1]
                    del bucket[1]
                else:
                    victim = bucket.popleft()
                self._discard(victim)
                out.append(victim)
            if self._span_count <= budget:
                break
        return out

    # -- queries -------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return self._span_count

    @property
    def tree_count(self) -> int:
        return len(self._by_trace)

    def trees(self) -> list[RetainedTree]:
        """Every retained tree, oldest sealed first."""
        out = [tree for bucket in self._by_class.values() for tree in bucket]
        out.sort(key=lambda tree: (tree.sealed_at, tree.trace_id))
        return out

    def tree_for(self, trace_id: int) -> RetainedTree | None:
        return self._by_trace.get(trace_id)

    def counts_by_class(self) -> dict[str, int]:
        return {cls: len(bucket) for cls, bucket in self._by_class.items()}


class SampledTracer(Tracer):
    """A tracer whose finished traces pass through the tail sampler.

    Open traces buffer per trace id; when a root finishes, the whole tree
    seals and the sampler decides. A span opened in a trace that has
    already sealed is held nowhere. Structural queries (``children`` /
    ``subtree``) keep working on retained trees; ``spans`` reflects
    retained plus still-open spans, so exports and phase attribution run
    unchanged — just over the bounded set.
    """

    def __init__(
        self, sim: "Simulator", policy: RetentionPolicy | None = None
    ) -> None:
        self.policy = policy if policy is not None else RetentionPolicy()
        self.sampler = TailSampler(self.policy)
        super().__init__(sim)

    def _init_store(self) -> None:
        # Open trees, keyed by trace id (insertion = open order).
        self._active: dict[int, list[Span]] = {}

    @property
    def spans(self) -> list[Span]:  # type: ignore[override]
        out = [span for tree in self.sampler.trees() for span in tree.spans]
        for buffered in self._active.values():
            out.extend(buffered)
        return out

    def _store(self, span: Span) -> None:
        buffered = self._active.get(span.trace_id)
        if buffered is None:
            if span.parent_id is not None:
                # A late span under a sealed trace: the sampler has already
                # decided that tree, and a fresh buffer would never seal.
                return
            buffered = self._active[span.trace_id] = []
        buffered.append(span)

    def _finished(self, span: Span) -> None:
        buffered = self._active.pop(span.trace_id, None)
        if buffered is not None:
            self.sampler.offer(span, buffered, sealed_at=self.sim.now)

    def _trace_spans(self, trace_id: int) -> typing.Sequence[Span]:
        # An open trace's buffer, or a retained tree's spans; a dropped or
        # evicted tree is held nowhere, so its spans have no children.
        tree = self.sampler.tree_for(trace_id)
        buffered = self._active.get(trace_id)
        if tree is None:
            return buffered or ()
        if buffered is None:
            return tree.spans
        return tree.spans + buffered

    # -- retained-set queries ------------------------------------------------

    def retained_trees(self) -> list[RetainedTree]:
        return self.sampler.trees()

    def retained_tree(self, trace_id: int) -> RetainedTree | None:
        return self.sampler.tree_for(trace_id)

    def open_spans(self) -> list[Span]:
        return [
            span
            for buffered in self._active.values()
            for span in buffered
            if not span.finished
        ]

    def retention_summary(self) -> dict[str, int]:
        """Counters for reports: offered/admitted/dropped/evicted + sizes."""
        sampler = self.sampler
        summary = {
            "offered": sampler.offered,
            "offered_spans": sampler.offered_spans,
            "admitted": sampler.admitted,
            "dropped": sampler.dropped,
            "evicted": sampler.evicted,
            "retained_trees": sampler.tree_count,
            "retained_spans": sampler.span_count,
            "span_budget": self.policy.span_budget,
        }
        for cls, count in sampler.counts_by_class().items():
            summary[f"kept_{cls}"] = count
        return summary
