"""Tail-based trace retention: keep-policies, budget eviction, reservoir.

The sampler defers the keep/drop decision until a trace's root finishes,
then classifies (error > retry > slow > normal) and holds the retained
set under a global span budget. These tests pin the classification
rules, the eviction order (least diagnostic first, oldest first within a
class), the protect-the-newcomer budget invariant, the boundedness of
the normal reservoir, and the SampledTracer's bookkeeping against the
plain keep-everything tracer.
"""

import gc
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiments import StormRig
from repro.sim import Simulator
from repro.tracing import (
    KEEP_CLASSES,
    RetentionPolicy,
    SampledTracer,
    TailSampler,
    Tracer,
)
from repro.tracing.sampling import (
    EVICTION_ORDER,
    KEEP_ERROR,
    KEEP_NORMAL,
    KEEP_RETRY,
    KEEP_SLOW,
)
from repro.tracing.span import Span


@pytest.fixture
def sim():
    return Simulator()


def _spans_reachable_from(tracer):
    """Every span the tracer's own state still refers to.

    Walks object references from the tracer, stopping at spans, the
    simulator, classes, modules and functions (whose globals reach
    everything).
    """
    stop = (Simulator, type, types.ModuleType, types.FunctionType)
    found, seen, stack = [], set(), list(gc.get_referents(tracer))
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Span):
            found.append(obj)
        elif not isinstance(obj, stop):
            stack.extend(gc.get_referents(obj))
    return found


def seal_trace(sim, tracer, name, child_count=2, duration=1.0, error=None,
               attempts=1):
    """Open a root with children, advance time, finish everything."""
    root = tracer.start_trace(name, phase="task")
    if attempts > 1:
        root.annotate("attempts", attempts)
    children = [root.child(f"{name}-c{i}", phase="db") for i in range(child_count)]
    sim.now += duration
    for child in children:
        child.finish()
    root.finish(error=error)
    return root


class TestClassification:
    def test_error_anywhere_wins(self, sim):
        tracer = Tracer(sim)
        sampler = TailSampler()
        root = tracer.start_trace("r", phase="task")
        child = root.child("c", phase="db")
        sim.now = 1.0
        child.finish(error="Boom")
        root.finish()
        assert sampler.classify(root, [root, child]) == KEEP_ERROR

    def test_retry_from_attempts_tag(self, sim):
        tracer = Tracer(sim)
        sampler = TailSampler()
        root = seal_trace(sim, tracer, "r", attempts=3)
        assert sampler.classify(root, tracer.spans) == KEEP_RETRY

    def test_retry_from_retry_phase_span(self, sim):
        tracer = Tracer(sim)
        sampler = TailSampler()
        root = tracer.start_trace("r", phase="task")
        backoff = root.child("backoff", phase="retry")
        sim.now = 1.0
        backoff.finish()
        root.finish()
        assert sampler.classify(root, [root, backoff]) == KEEP_RETRY

    def test_slow_needs_armed_threshold(self, sim):
        tracer = Tracer(sim)
        policy = RetentionPolicy(min_slow_samples=5, slow_quantile=0.9)
        sampler = TailSampler(policy)
        assert sampler.slow_threshold() is None
        # Feed the duration distribution: many fast roots, then one slow.
        for index in range(10):
            root = seal_trace(sim, tracer, f"fast{index}", duration=1.0)
            sampler.offer(root, [root], sealed_at=sim.now)
        assert sampler.slow_threshold() is not None
        slow_root = seal_trace(sim, tracer, "slow", duration=500.0)
        assert sampler.classify(slow_root, [slow_root]) == KEEP_SLOW

    def test_healthy_fast_trace_is_normal(self, sim):
        tracer = Tracer(sim)
        sampler = TailSampler()
        root = seal_trace(sim, tracer, "r")
        assert sampler.classify(root, tracer.spans) == KEEP_NORMAL

    def test_own_duration_never_arms_its_own_threshold(self, sim):
        # The first min_slow_samples roots can never be classified slow,
        # even if identical — record happens after classify.
        tracer = Tracer(sim)
        sampler = TailSampler(RetentionPolicy(min_slow_samples=3))
        keeps = []
        for index in range(3):
            root = seal_trace(sim, tracer, f"r{index}", duration=100.0)
            tree, _ = sampler.offer(root, [root], sealed_at=sim.now)
            keeps.append(tree.keep if tree else None)
        assert KEEP_SLOW not in keeps


class TestBudgetEviction:
    def _tree(self, sim, tracer, name, **kwargs):
        root = seal_trace(sim, tracer, name, **kwargs)
        spans = [root] + tracer.children(root)
        return root, spans

    def test_normals_evicted_before_errors(self, sim):
        tracer = Tracer(sim)
        # Budget of 6 spans = two 3-span trees.
        sampler = TailSampler(
            RetentionPolicy(span_budget=6, normal_reservoir=16)
        )
        root_n, spans_n = self._tree(sim, tracer, "normal")
        sampler.offer(root_n, spans_n, sealed_at=sim.now)
        root_e, spans_e = self._tree(sim, tracer, "err", error="Boom")
        sampler.offer(root_e, spans_e, sealed_at=sim.now)
        root_e2, spans_e2 = self._tree(sim, tracer, "err2", error="Boom")
        _, evicted = sampler.offer(root_e2, spans_e2, sealed_at=sim.now)
        # The normal tree went, both errors stayed.
        assert [tree.keep for tree in evicted] == [KEEP_NORMAL]
        assert {tree.keep for tree in sampler.trees()} == {KEEP_ERROR}
        assert sampler.span_count <= 6

    def test_oldest_within_class_goes_first(self, sim):
        tracer = Tracer(sim)
        sampler = TailSampler(
            RetentionPolicy(span_budget=9, normal_reservoir=16)
        )
        roots = []
        for index in range(4):
            root, spans = self._tree(sim, tracer, f"n{index}")
            sampler.offer(root, spans, sealed_at=sim.now)
            roots.append(root)
        retained_ids = {tree.trace_id for tree in sampler.trees()}
        # 4 trees x 3 spans > 9: the first-sealed tree was evicted.
        assert roots[0].trace_id not in retained_ids
        assert roots[-1].trace_id in retained_ids

    def test_oversized_tree_still_admitted(self, sim):
        tracer = Tracer(sim)
        sampler = TailSampler(RetentionPolicy(span_budget=4))
        root, spans = self._tree(sim, tracer, "big", child_count=9)
        tree, _ = sampler.offer(root, spans, sealed_at=sim.now)
        assert tree is not None
        assert sampler.span_count == 10  # over budget, by design

    def test_eviction_order_constant_covers_all_classes(self):
        assert set(EVICTION_ORDER) == set(KEEP_CLASSES)
        assert EVICTION_ORDER[0] == KEEP_NORMAL
        assert EVICTION_ORDER[-1] == KEEP_ERROR


class TestNormalReservoir:
    def test_reservoir_is_bounded(self, sim):
        tracer = Tracer(sim)
        sampler = TailSampler(
            RetentionPolicy(span_budget=10_000, normal_reservoir=4)
        )
        for index in range(100):
            root = seal_trace(sim, tracer, f"n{index}", child_count=0)
            sampler.offer(root, [root], sealed_at=sim.now)
        assert sampler.counts_by_class()[KEEP_NORMAL] == 4
        assert sampler.offered == 100
        assert sampler.admitted + sampler.dropped == 100

    def test_zero_reservoir_drops_all_normals(self, sim):
        tracer = Tracer(sim)
        sampler = TailSampler(
            RetentionPolicy(span_budget=10_000, normal_reservoir=0)
        )
        for index in range(10):
            root = seal_trace(sim, tracer, f"n{index}", child_count=0)
            tree, _ = sampler.offer(root, [root], sealed_at=sim.now)
            assert tree is None
        assert sampler.tree_count == 0

    def test_private_rng_not_simulation_stream(self):
        # Same seed, same decisions — reproducible independently of any
        # simulator state.
        results = []
        for _ in range(2):
            sim = Simulator()
            tracer = Tracer(sim)
            sampler = TailSampler(
                RetentionPolicy(span_budget=10_000, normal_reservoir=3,
                                reservoir_seed=7)
            )
            for index in range(50):
                root = seal_trace(sim, tracer, f"n{index}", child_count=0)
                sampler.offer(root, [root], sealed_at=sim.now)
            results.append(sorted(t.root.name for t in sampler.trees()))
        assert results[0] == results[1]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["error", "retry", "normal"]),
            st.integers(min_value=0, max_value=6),  # children
        ),
        min_size=1,
        max_size=40,
    ),
    st.integers(min_value=1, max_value=30),  # span budget
)
def test_sampler_invariants_hold_under_any_offer_sequence(traces, budget):
    """Property: span accounting exact, budget bounded by the biggest tree."""
    sim = Simulator()
    tracer = Tracer(sim)
    sampler = TailSampler(
        RetentionPolicy(span_budget=budget, normal_reservoir=8)
    )
    max_tree = 0
    for index, (flavor, child_count) in enumerate(traces):
        root = seal_trace(
            sim,
            tracer,
            f"t{index}",
            child_count=child_count,
            error="Boom" if flavor == "error" else None,
            attempts=3 if flavor == "retry" else 1,
        )
        spans = [root] + tracer.children(root)
        max_tree = max(max_tree, len(spans))
        sampler.offer(root, spans, sealed_at=sim.now)
        # Exact accounting: span_count is the sum over retained trees.
        assert sampler.span_count == sum(
            len(tree.spans) for tree in sampler.trees()
        )
        # Bounded: never above budget unless a single tree is bigger.
        assert sampler.span_count <= max(budget, max_tree)
    assert sampler.offered == len(traces)
    assert sampler.offered_spans == sum(1 + c for _, c in traces)
    # Offered trees are admitted or dropped; retained = admitted - evicted.
    assert sampler.admitted + sampler.dropped == sampler.offered
    assert sampler.tree_count == sampler.admitted - sampler.evicted


class TestSampledTracer:
    def test_drop_in_replacement_shape(self, sim):
        tracer = SampledTracer(sim)
        root = seal_trace(sim, tracer, "r")
        assert root in tracer.spans
        assert tracer.retained_tree(root.trace_id) is not None

    def test_open_traces_buffer_until_root_finishes(self, sim):
        tracer = SampledTracer(sim, RetentionPolicy(normal_reservoir=0))
        root = tracer.start_trace("r", phase="task")
        child = root.child("c", phase="db")
        sim.now = 1.0
        child.finish()
        # Root still open: everything visible, nothing offered yet.
        assert tracer.sampler.offered == 0
        assert set(tracer.spans) == {root, child}
        root.finish()
        # Sealed and dropped (reservoir 0, healthy trace): gone entirely.
        assert tracer.sampler.offered == 1
        assert tracer.spans == []
        assert tracer.children(root) == []

    def test_retained_spans_bounded_while_plain_tracer_grows(self, sim):
        plain = Tracer(sim)
        budget = 12
        sampled = SampledTracer(
            sim, RetentionPolicy(span_budget=budget, normal_reservoir=2)
        )
        for index in range(100):
            seal_trace(sim, plain, f"p{index}")
            seal_trace(sim, sampled, f"s{index}")
        assert len(plain.spans) == 300
        assert sampled.sampler.span_count <= budget
        summary = sampled.retention_summary()
        assert summary["offered"] == 100
        assert summary["offered_spans"] == 300
        assert summary["retained_spans"] == sampled.sampler.span_count
        assert summary["span_budget"] == budget

    def test_dropped_tree_leaves_no_state(self, sim):
        # min_slow_samples high keeps the slow threshold unarmed, so every
        # one of these healthy identical traces is a dropped normal.
        tracer = SampledTracer(
            sim, RetentionPolicy(normal_reservoir=0, min_slow_samples=1000)
        )
        roots = [seal_trace(sim, tracer, f"n{index}") for index in range(50)]
        assert tracer.sampler.dropped == 50
        assert tracer._active == {}
        assert tracer.spans == []
        assert _spans_reachable_from(tracer) == []
        for root in roots:
            assert tracer.children(root) == []
            assert tracer.subtree(root) == [root]

    def test_reachability_walk_sees_retained_spans(self, sim):
        tracer = SampledTracer(sim, RetentionPolicy(normal_reservoir=0))
        err = seal_trace(sim, tracer, "bad", error="Boom")
        seal_trace(sim, tracer, "n")
        assert sorted(s.span_id for s in _spans_reachable_from(tracer)) == [
            s.span_id for s in tracer.subtree(err)
        ]

    def test_error_trees_survive_normal_churn(self, sim):
        tracer = SampledTracer(
            sim, RetentionPolicy(span_budget=30, normal_reservoir=2)
        )
        err = seal_trace(sim, tracer, "bad", error="Boom")
        for index in range(50):
            seal_trace(sim, tracer, f"n{index}")
        retained = tracer.retained_tree(err.trace_id)
        assert retained is not None
        assert retained.keep == KEEP_ERROR
        # Structural queries still work on the retained tree.
        assert len(tracer.subtree(err)) == 3


class TestRoomySampledTracerMatchesPlain:
    """With a span budget above the run's span count, and no more trees
    than the normal reservoir holds, the sampled tracer keeps every tree
    and hands out the same identities as the plain tracer: tail sampling
    changes what is kept, never what a span is."""

    @staticmethod
    def _storm(sample_budget=None):
        rig = StormRig(seed=3, traced=True, sample_budget=sample_budget)
        rig.closed_loop_storm(total=12, concurrency=6, linked=True)
        return rig.tracer

    def test_retained_rows_equal_plain_rows(self):
        plain = self._storm()
        sampled = self._storm(sample_budget=1_000_000)
        summary = sampled.retention_summary()
        assert summary["dropped"] == 0 and summary["evicted"] == 0
        assert summary["offered_spans"] == len(plain.spans)
        assert sampled.open_spans() == []

        def rows(spans):
            return sorted(
                (span.to_dict() for span in spans),
                key=lambda row: row["span_id"],
            )

        retained = rows(sampled.spans)
        assert len(retained) == len(plain.spans) > 12
        assert retained == rows(plain.spans)
        assert {row["parent_id"] for row in retained} - {None} <= {
            row["span_id"] for row in retained
        }

    def test_span_still_rejects_unknown_phase(self):
        sampled = self._storm(sample_budget=1_000_000)
        with pytest.raises(ValueError, match="unknown phase"):
            sampled.start_trace("x", phase="nonsense")
        root = sampled.start_trace("y", phase="task")
        with pytest.raises(ValueError, match="unknown phase"):
            root.child("z", phase="nonsense")
