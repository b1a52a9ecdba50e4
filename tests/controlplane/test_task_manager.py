"""Unit tests for the task manager lifecycle."""

import pytest

from repro.controlplane import TaskState
from repro.controlplane.task_manager import TaskManager
from repro.operations.base import CONTROL, DATA, phase
from repro.telemetry.metrics import Telemetry
from tests.scoped import scoped


def make_tm(sim, database, max_inflight=4):
    return TaskManager(sim, database, max_inflight=max_inflight)


def test_successful_task_lifecycle(sim, database):
    manager = make_tm(sim, database)

    def wait(seconds):
        yield sim.timeout(seconds)

    def body(task):
        yield from phase(task, "work", CONTROL, sim, wait(1.0))
        yield from phase(task, "copy", DATA, sim, wait(0.5))

    def proc():
        yield from manager.run_task("power_on", body)

    process = sim.spawn(proc())
    sim.run(until=process)
    (task,) = manager.tasks
    assert task.state == TaskState.SUCCESS
    assert task.latency > 1.5  # includes two DB writes
    assert task.queue_wait >= 0.0
    assert task.control_s == task.plane_seconds("control") == 1.0
    assert task.data_s == task.plane_seconds("data") == 0.5
    assert manager.succeeded("power_on") == [task]


def test_failed_task_marked_error_and_reraises(sim, database):
    manager = make_tm(sim, database)

    def body(task):
        yield sim.timeout(0.5)
        raise RuntimeError("host exploded")

    def proc():
        with pytest.raises(RuntimeError, match="exploded"):
            yield from manager.run_task("clone", body)
        return "ok"

    process = sim.spawn(proc())
    assert sim.run(until=process) == "ok"
    (task,) = manager.tasks
    assert task.state == TaskState.ERROR
    assert "host exploded" in task.error
    assert manager.failed() == [task]
    assert manager.succeeded() == []
    assert task.finished_at is not None


def test_inflight_limit_queues_tasks(sim, database):
    manager = make_tm(sim, database, max_inflight=1)
    starts = []

    def body(task):
        starts.append(sim.now)
        yield sim.timeout(10.0)

    def proc():
        yield from manager.run_task("clone", body)

    sim.spawn(proc())
    sim.spawn(proc())
    sim.run()
    assert starts[1] >= starts[0] + 10.0
    assert max(depth for _, depth in manager.queue_depth_series()) >= 1


def test_priority_orders_dispatch(sim, database):
    manager = make_tm(sim, database, max_inflight=1)
    order = []

    def body_factory(tag, duration):
        def body(task):
            order.append(tag)
            yield sim.timeout(duration)

        return body

    def proc(tag, priority, delay, duration=1.0):
        yield sim.timeout(delay)
        yield from manager.run_task("op", body_factory(tag, duration), priority=priority)

    # Holder occupies the single slot for 20s; bulk and interactive queue
    # behind it (submitted at t=1 and t=2) and must dispatch by priority.
    sim.spawn(proc("holder", 5.0, delay=0.0, duration=20.0))
    sim.spawn(proc("bulk", 9.0, delay=1.0))
    sim.spawn(proc("interactive", 1.0, delay=2.0))
    sim.run()
    assert order == ["holder", "interactive", "bulk"]


def test_task_ids_unique_and_ordered(sim, database):
    manager = make_tm(sim, database)

    def body(task):
        yield sim.timeout(0.1)

    def proc():
        yield from manager.run_task("op", body)

    for _ in range(5):
        sim.spawn(proc())
    sim.run()
    ids = [task.task_id for task in manager.tasks]
    assert ids == sorted(ids)
    assert len(set(ids)) == 5


def test_queue_depth_series_returns_steps(sim, database):
    manager = make_tm(sim, database, max_inflight=1)

    def body(task):
        yield sim.timeout(5.0)

    def proc():
        yield from manager.run_task("op", body)

    sim.spawn(proc())
    sim.spawn(proc())
    sim.run()
    series = manager.queue_depth_series()
    depths = [depth for _, depth in series]
    assert max(depths) >= 1
    assert depths[-1] == 0


def test_latency_metrics_recorded_per_type(sim, database):
    telemetry = Telemetry(sim)
    manager = TaskManager(sim, database, max_inflight=4, telemetry=telemetry.scope("tasks"))

    def body(task):
        yield sim.timeout(1.0)

    def proc(op_type):
        yield from manager.run_task(op_type, body)

    sim.spawn(proc("clone"))
    sim.spawn(proc("power_on"))
    sim.run()
    assert scoped(telemetry, "tasks.latency.clone") == 1
    assert scoped(telemetry, "tasks.latency.power_on") == 1
    assert telemetry.families["tasks_latency_s"].labels().hist.count == 2
    assert scoped(telemetry, "tasks.completed.clone") == 1


class TestPerTypeLimits:
    def test_capped_type_serializes(self, sim, database):
        from repro.controlplane.task_manager import TaskManager

        manager = TaskManager(
            sim, database, max_inflight=16, per_type_limits={"clone_linked": 1}
        )
        starts = []

        def body(task):
            starts.append((task.op_type, sim.now))
            yield sim.timeout(10.0)

        def proc(op_type):
            yield from manager.run_task(op_type, body)

        sim.spawn(proc("clone_linked"))
        sim.spawn(proc("clone_linked"))
        sim.spawn(proc("power_on"))
        sim.run()
        clone_starts = sorted(t for op, t in starts if op == "clone_linked")
        power_starts = [t for op, t in starts if op == "power_on"]
        # Clones serialized by the cap; the uncapped power op ran freely.
        assert clone_starts[1] >= clone_starts[0] + 10.0
        assert power_starts[0] < clone_starts[1]

    def test_uncapped_types_unaffected(self, sim, database):
        from repro.controlplane.task_manager import TaskManager

        manager = TaskManager(
            sim, database, max_inflight=16, per_type_limits={"migrate": 1}
        )
        starts = []

        def body(task):
            starts.append(sim.now)
            yield sim.timeout(5.0)

        def proc():
            yield from manager.run_task("power_on", body)

        sim.spawn(proc())
        sim.spawn(proc())
        sim.run()
        assert abs(starts[0] - starts[1]) < 1.0

    def test_config_validates_limits(self):
        import pytest

        from repro.controlplane import ControlPlaneConfig

        with pytest.raises(ValueError):
            ControlPlaneConfig(per_type_limits={"clone_linked": 0})

    def test_server_wires_limits_through(self):
        from repro.controlplane import ControlPlaneConfig
        from tests.operations.conftest import SmallCloud
        from repro.operations import CloneVM

        cloud = SmallCloud(
            seed=2, config=ControlPlaneConfig(per_type_limits={"clone_linked": 1})
        )
        processes = [
            cloud.server.submit(
                CloneVM(
                    cloud.template,
                    f"c{i}",
                    cloud.hosts[i % 4],
                    cloud.datastores[0],
                    linked=True,
                )
            )
            for i in range(4)
        ]
        cloud.sim.run()
        tasks = [process.value for process in processes]
        # Serialized: no two tasks overlap in their running window.
        windows = sorted((t.started_at, t.finished_at) for t in tasks)
        for (s1, f1), (s2, f2) in zip(windows, windows[1:]):
            assert s2 >= f1 - 1e-9


def test_granted_deadline_wait_cancels_its_timer():
    # A dispatch wait granted before its deadline cancels the deadline
    # timer, so the run quiesces when the storm ends (36.0 s), not when
    # the last granted task's deadline would have fired (618.5 s).
    from repro.controlplane import ControlPlaneConfig
    from repro.core.experiments import StormRig

    rig = StormRig(
        seed=0,
        hosts=4,
        config=ControlPlaneConfig(max_inflight_tasks=4, task_deadline_s=600),
    )
    outcome = rig.closed_loop_storm(40, 20, linked=True)
    storm_end = rig.sim.now
    rig.sim.run()
    assert outcome["completed"] == 40
    assert storm_end == pytest.approx(36.05, abs=0.01)
    assert rig.sim.now == storm_end
