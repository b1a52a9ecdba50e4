"""``children()`` and ``subtree()`` against a reference child index.

The tracers keep no child index: they build structural answers from a
trace's own span list when asked. This pins those answers to what an
index appended at every span open would say — children in open order,
subtrees in preorder — on the plain tracer for every span, and on the
sampled tracer for every open or retained tree. A tree the sampler
dropped or evicted is held nowhere, so its spans have no children; nor
is a span opened after its tree sealed.
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


def run_program(tracer, sim, steps):
    """Drive ``tracer`` through ``steps``; return spans, index and late ids.

    The reference index maps each span id to its children in open order,
    as an index appended at every open would hold them. ``late`` holds
    the ids of spans opened in a trace whose root had already finished:
    the sampler has decided such a tree, so it holds none of them.
    """
    index: dict[int, list] = {}
    roots: dict[int, object] = {}
    late: set[int] = set()
    spans, open_spans = [], []
    for kind, pick, flag in steps:
        if kind == "root" or (kind == "child" and not open_spans):
            span = tracer.start_trace(f"r{len(spans)}", phase="task")
            roots[span.trace_id] = span
        elif kind == "child":
            parent = open_spans[pick % len(open_spans)]
            phase = "retry" if flag else "db"
            if flag:
                span = tracer.start_span(f"c{len(spans)}", phase=phase, parent=parent)
            else:
                span = parent.child(f"c{len(spans)}", phase=phase)
            index.setdefault(parent.span_id, []).append(span)
            if roots[span.trace_id].finished:
                late.add(span.span_id)
        elif kind == "finish":
            if not open_spans:
                continue
            span = open_spans.pop(pick % len(open_spans))
            span.finish(error="Boom" if flag and pick % 7 == 0 else None)
            continue
        else:
            sim.now += pick
            continue
        spans.append(span)
        open_spans.append(span)
    return spans, index, late


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
    spans, index, _late = run_program(tracer, sim, steps)
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
    spans, index, late = run_program(tracer, sim, steps)
    index = {
        span_id: [kid for kid in kids if kid.span_id not in late]
        for span_id, kids in index.items()
    }
    for span in spans:
        held = span.trace_id in tracer._active or tracer.retained_tree(span.trace_id)
        if held and span.span_id not in late:
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
    sim.now = 1.0
    for span in (a1, a, b, d):
        span.finish()
    kept.finish(error="Boom")
    dropped.finish()
    # The error tree is retained, the healthy one dropped.
    assert tracer.subtree(kept) == [kept, a, a1, b]
    assert tracer.children(a) == [a1]
    assert tracer.children(dropped) == []
    assert tracer.subtree(dropped) == [dropped]


def test_late_span_under_sealed_trace_is_held_nowhere():
    # A root finishes while its child is open, then a grandchild opens:
    # the tree is already sealed, so the grandchild must not start a
    # buffer that nothing would ever seal.
    sim = Simulator()
    tracer = SampledTracer(sim, RetentionPolicy(normal_reservoir=0))
    root = tracer.start_trace("root", phase="task")
    child = root.child("child", phase="db")
    sim.now = 1.0
    root.finish(error="Boom")
    grandchild = child.child("grandchild", phase="db")
    assert tracer._active == {}
    assert grandchild not in tracer.spans
    assert tracer.open_spans() == []
    grandchild.finish()
    child.finish()
    # The retained tree is what sealed: root and the child open at the time.
    assert tracer.retained_tree(root.trace_id).spans == [root, child]
    assert tracer.children(child) == []
    assert tracer.spans == [root, child]
