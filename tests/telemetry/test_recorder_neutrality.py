"""Recorder + sampling neutrality: observe-only, byte-identical schedules.

The differential the ISSUE demands: run the same seeded faulted storm
with the full flight-recorder stack on (SampledTracer on a span budget,
triage, recorder) and with everything off, and require the *task
schedules* — every task's submit/start/finish time, state, and attempt
count — to be identical. The sampler reacts only to span finishes and
draws from a private RNG; the recorder runs inside the monitor's
evaluate step and reads only roll-ups/spans/stats. No workload event may
shift.
"""

from repro.core.experiments import StormRig
from repro.faults.injector import FaultInjector, FaultTargets
from repro.faults.schedule import standard_fault_schedule
from repro.telemetry import NULL_RECORDER
from repro.telemetry.slo import AvailabilityRule, BurnWindow, RatioRule


def schedule_of(rig):
    return [
        (
            task.task_id,
            task.op_type,
            task.submitted_at,
            task.started_at,
            task.finished_at,
            task.state.name,
            task.attempts,
        )
        for task in rig.server.tasks.tasks
    ]


def run_storm(recorder: bool):
    rig = StormRig(
        seed=3,
        hosts=8,
        datastores=2,
        telemetry=True,
        scrape_interval_s=0.5,
        triage=recorder,
        traced=recorder,
        sample_budget=512 if recorder else None,
        recorder=recorder,
    )
    # Identical monitor config either way; only the attached listeners
    # and the tracer differ. The flap takes hosts down, so the
    # availability rule burns and the recorder-on run records real
    # bundles — not a vacuous diff.
    windows = (BurnWindow(short_s=15.0, long_s=60.0, threshold=1.0),)
    rig.telemetry.add_rule(
        AvailabilityRule(
            name="host-availability",
            objective=0.99,
            metric_prefix="host_up",
            windows=windows,
        )
    )
    rig.telemetry.add_rule(
        RatioRule(
            name="task-goodput",
            objective=0.98,
            bad_metric='tasks_completed_total{outcome="error"}',
            total_metrics=(
                'tasks_completed_total{outcome="success"}',
                'tasks_completed_total{outcome="error"}',
            ),
            windows=windows,
        )
    )
    rig.telemetry.start()
    injector = FaultInjector(
        rig.sim,
        FaultTargets.for_server(rig.server),
        standard_fault_schedule(600.0),
        rng=rig.streams.stream("fault-injector"),
    ).start()
    summary = rig.closed_loop_storm(total=48, concurrency=12, linked=True)
    rig.sim.run(until=rig.sim.spawn(injector.drain(), name="fault-drain"))
    return rig, summary


def test_task_schedule_identical_with_and_without_recorder_stack():
    rig_off, summary_off = run_storm(recorder=False)
    rig_on, summary_on = run_storm(recorder=True)

    assert schedule_of(rig_on) == schedule_of(rig_off)
    assert summary_on == summary_off
    # The recorder run actually recorded — not a vacuous diff.
    assert rig_off.recorder is NULL_RECORDER
    fired = [e for e in rig_on.telemetry.monitor.timeline if e.kind == "fire"]
    assert fired
    assert rig_on.recorder.bundles
    assert rig_on.tracer.sampler.offered > 0
    # Tail sampling did real work: some trees dropped or evicted.
    assert rig_on.tracer.sampler.dropped + rig_on.tracer.sampler.evicted > 0
    # And the alert timelines themselves agree: everything read, nothing
    # wrote.
    assert [
        (e.rule, e.kind, e.time) for e in rig_on.telemetry.monitor.timeline
    ] == [(e.rule, e.kind, e.time) for e in rig_off.telemetry.monitor.timeline]
