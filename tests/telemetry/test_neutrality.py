"""Scrape neutrality: telemetry must observe without perturbing.

The differential test ISSUE demands: run the same seeded storm with
telemetry off and with the scraper running, and require the *task
schedules* — every task's submit/start/finish time, state, and attempt
count — to be identical. The scraper only reads model state, so its timer
events must not shift any workload event.
"""

import pytest

from repro.core.experiments import StormRig
from repro.faults.injector import FaultInjector, FaultTargets
from repro.faults.schedule import standard_fault_schedule
from repro.telemetry.metrics import NULL_TELEMETRY


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


def run_storm(telemetry: bool, faults: bool = False):
    # Fast cadence so plenty of scraper events interleave with the storm.
    rig = StormRig(
        seed=3, hosts=8, datastores=2, telemetry=telemetry, scrape_interval_s=0.5
    )
    if telemetry:
        rig.telemetry.start()
    injector = None
    if faults:
        injector = FaultInjector(
            rig.sim,
            FaultTargets.for_server(rig.server),
            standard_fault_schedule(600.0),
            rng=rig.streams.stream("fault-injector"),
        ).start()
    summary = rig.closed_loop_storm(total=48, concurrency=12, linked=True)
    if injector is not None:
        rig.sim.run(until=rig.sim.spawn(injector.drain(), name="fault-drain"))
    return rig, summary


@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faulted"])
def test_task_schedule_identical_with_and_without_telemetry(faults):
    rig_off, summary_off = run_storm(telemetry=False, faults=faults)
    rig_on, summary_on = run_storm(telemetry=True, faults=faults)

    assert schedule_of(rig_on) == schedule_of(rig_off)
    assert summary_on == summary_off
    # The telemetry run actually observed something — the comparison is
    # not vacuous.
    assert rig_on.telemetry.scraper.scrapes > 10
    assert rig_on.telemetry.rollups
    assert rig_off.telemetry is NULL_TELEMETRY
