"""``children()`` and ``subtree()`` against a reference child index.

The tracers keep no child index: they build structural answers from a
trace's own span list when asked. This pins those answers to what an
index appended at every span open would say — children in open order,
subtrees in preorder — on the plain tracer for every span, and on the
sampled tracer for every open or retained tree. A tree the sampler
dropped or evicted is held nowhere, so its spans have no children.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.tracing import RetentionPolicy, SampledTracer, Tracer

# One step of a random tracing program: open a root, open a child under
# the n-th open span, finish the n-th open span, or advance the clock.
STEP = st.one_of(
    st.tuples(st.just("root"), st.integers(0, 0), st.booleans()),
    st.tuples(st.just("child"), st.integers(0, 63), st.booleans()),
    st.tuples(st.just("finish"), st.integers(0, 63), st.booleans()),
    st.tuples(st.just("tick"), st.integers(1, 5), st.booleans()),
)


def run_program(tracer, sim, steps, sealed_parents=True):
    """Drive ``tracer`` through ``steps``; return the reference index.

    The reference maps each span id to its children in open order, as
    an index appended at every open would hold them. Without
    ``sealed_parents`` a child opens only under a span whose root is
    still open, as instrumentation does: once a tree is sealed the
    sampler has decided its fate, and no run opens a span in it.
    """
    index: dict[int, list] = {}
    roots: dict[int, object] = {}
    spans, open_spans = [], []
    for kind, pick, flag in steps:
        parents = open_spans
        if not sealed_parents:
            parents = [s for s in open_spans if not roots[s.trace_id].finished]
        if kind == "root" or (kind == "child" and not parents):
            span = tracer.start_trace(f"r{len(spans)}", phase="task")
            roots[span.trace_id] = span
        elif kind == "child":
            parent = parents[pick % len(parents)]
            phase = "retry" if flag else "db"
            if flag:
                span = tracer.start_span(f"c{len(spans)}", phase=phase, parent=parent)
            else:
                span = parent.child(f"c{len(spans)}", phase=phase)
            index.setdefault(parent.span_id, []).append(span)
        elif kind == "finish":
            if not open_spans:
                continue
            span = open_spans.pop(pick % len(open_spans))
            span.finish(error="Boom" if flag and pick % 7 == 0 else None)
            continue
        else:
            sim._now += pick
            continue
        spans.append(span)
        open_spans.append(span)
    return spans, index


def reference_subtree(index, root):
    out, stack = [], [root]
    while stack:
        span = stack.pop()
        out.append(span)
        stack.extend(reversed(index.get(span.span_id, ())))
    return out


@given(steps=st.lists(STEP, max_size=120))
@settings(max_examples=150, deadline=None)
def test_plain_tracer_matches_reference_index(steps):
    sim = Simulator()
    tracer = Tracer(sim)
    spans, index = run_program(tracer, sim, steps)
    for span in spans:
        assert tracer.children(span) == index.get(span.span_id, [])
        assert tracer.subtree(span) == reference_subtree(index, span)


@given(
    steps=st.lists(STEP, max_size=120),
    budget=st.integers(1, 24),
    reservoir=st.integers(0, 3),
)
@settings(max_examples=150, deadline=None)
def test_sampled_tracer_matches_reference_index(steps, budget, reservoir):
    sim = Simulator()
    tracer = SampledTracer(
        sim,
        RetentionPolicy(span_budget=budget, normal_reservoir=reservoir, min_slow_samples=2),
    )
    spans, index = run_program(tracer, sim, steps, sealed_parents=False)
    for span in spans:
        held = span.trace_id in tracer._active or tracer.retained_tree(span.trace_id)
        if held:
            assert tracer.children(span) == index.get(span.span_id, [])
            assert tracer.subtree(span) == reference_subtree(index, span)
        else:
            assert tracer.children(span) == []
            assert tracer.subtree(span) == [span]


def test_sampled_tracer_holds_open_and_retained_trees():
    sim = Simulator()
    tracer = SampledTracer(sim, RetentionPolicy(normal_reservoir=0))
    kept = tracer.start_trace("kept", phase="task")
    a = kept.child("a", phase="db")
    b = kept.child("b", phase="db")
    a1 = a.child("a1", phase="db")
    dropped = tracer.start_trace("dropped", phase="task")
    d = dropped.child("d", phase="db")
    # Both trees open: both answer from their buffers.
    assert tracer.children(kept) == [a, b]
    assert tracer.subtree(kept) == [kept, a, a1, b]
    assert tracer.children(dropped) == [d]
    sim._now = 1.0
    for span in (a1, a, b, d):
        span.finish()
    kept.finish(error="Boom")
    dropped.finish()
    # The error tree is retained, the healthy one dropped.
    assert tracer.subtree(kept) == [kept, a, a1, b]
    assert tracer.children(a) == [a1]
    assert tracer.children(dropped) == []
    assert tracer.subtree(dropped) == [dropped]
