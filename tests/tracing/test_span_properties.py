"""Property-based tests on span-tree invariants (hypothesis).

Whatever the workload shape — storm size, concurrency, clone kind, seed,
even an active fault schedule — a finished run's span trees must satisfy:
children nest inside their parents, no span outlives its trace root,
phase attribution sums exactly to each root's duration, and the critical
path never exceeds (in fact equals) the root's latency.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.spans import critical_path, phase_attribution
from repro.core.experiments import StormRig


def assert_tree_invariants(tracer):
    assert tracer.open_spans() == []
    by_id = {span.span_id: span for span in tracer.spans}
    for span in tracer.spans:
        assert span.end >= span.start
        parent_id = span.parent_id
        if parent_id is not None:
            parent = by_id[parent_id]
            assert span.trace_id == parent.trace_id
            assert span.start >= parent.start - 1e-9
            assert span.end <= parent.end + 1e-9


def assert_root_invariants(tracer, roots):
    for root in roots:
        attribution = phase_attribution(root)
        assert sum(attribution.values()) == pytest.approx(root.duration)
        segments = critical_path(root)
        length = sum(segment.duration for segment in segments)
        assert length <= root.duration + 1e-9
        assert length == pytest.approx(root.duration)
        bounds = [(segment.start, segment.end) for segment in segments]
        assert bounds == sorted(bounds)


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    total=st.integers(min_value=1, max_value=10),
    concurrency=st.integers(min_value=1, max_value=10),
    linked=st.booleans(),
)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_storm_span_trees_satisfy_invariants(seed, total, concurrency, linked):
    rig = StormRig(seed=seed, hosts=4, datastores=2, traced=True)
    rig.closed_loop_storm(total=total, concurrency=concurrency, linked=linked)
    assert_tree_invariants(rig.tracer)
    roots = [task.span for task in rig.server.tasks.succeeded()]
    assert roots
    assert_root_invariants(rig.tracer, roots)
    for task in rig.server.tasks.succeeded():
        assert task.span.end <= rig.sim.now + 1e-9


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_span_invariants_hold_under_fault_schedule(seed):
    """R-X3 conditions: the standard fault schedule, retries enabled."""
    import dataclasses

    from repro.controlplane.costs import ControlPlaneConfig, DEFAULT_COSTS
    from repro.controlplane.resilience import RetryPolicy
    from repro.faults import FaultInjector, FaultTargets, standard_fault_schedule
    from repro.operations.provisioning import CloneVM
    from repro.sim.events import AllOf

    duration = 120.0
    rig = StormRig(
        seed=seed,
        hosts=4,
        datastores=2,
        traced=True,
        costs=dataclasses.replace(DEFAULT_COSTS, host_call_timeout_s=20.0),
        config=ControlPlaneConfig(
            retry_policy=RetryPolicy(max_attempts=3, base_backoff_s=1.0),
        ),
    )
    injector = FaultInjector(
        rig.sim,
        FaultTargets.for_server(rig.server),
        standard_fault_schedule(duration),
        rng=rig.streams.stream("fault-injector"),
    ).start()

    def one(index):
        process = rig.server.submit(
            CloneVM(
                rig.template,
                f"storm-{index}",
                rig.hosts[index % len(rig.hosts)],
                rig.datastores[index % len(rig.datastores)],
                linked=True,
            )
        )
        try:
            yield process
        except Exception:
            pass

    workers = [rig.sim.spawn(one(index)) for index in range(8)]
    rig.sim.run(until=AllOf(rig.sim, workers))
    rig.sim.run(until=rig.sim.spawn(injector.drain()))
    assert_tree_invariants(rig.tracer)
    finished_roots = [
        task.span
        for task in rig.server.tasks.completed()
        if not task.span.is_null and task.span.finished
    ]
    assert finished_roots
    assert_root_invariants(rig.tracer, finished_roots)
