"""A seeded contention workload, pinned by a log recorded before the
resource refactor.

Every control-plane queue is a :mod:`repro.sim.resources` wait or an
``RWLock``. The workload below drives both through the paths that can
reorder a schedule: FCFS and prioritised requests, deadline withdrawals
through ``AnyOf`` with a timer, interrupts of queued and just-granted
processes, and readers and writers on one lock. Start times and holds
sit on a half-second grid, so many actions share a tick and the
``(time, sequence)`` tie-breaks decide the order.

``contention_logs.json`` holds the ``[now, tag]`` log of each seed as
the list-scan resource classes produced it, before ``Resource`` became
one heap-ordered class. The heap-ordered ``Resource`` must reproduce it
exactly.
"""

import json
import random
from pathlib import Path

import pytest

from repro.controlplane.costs import ControlPlaneCosts
from repro.controlplane.database import DatabaseModel
from repro.controlplane.locks import READ, WRITE, LockManager, RWLock
from repro.controlplane.resilience import TaskDeadlineExceeded
from repro.controlplane.task_manager import TaskManager
from repro.sim import AnyOf, Interrupt, Resource, Simulator

RECORDED = json.loads((Path(__file__).parent / "contention_logs.json").read_text())
SEEDS = list(range(12))


def contention_workload(seed: int) -> list:
    """Run the workload for ``seed``; return its ``[now, tag]`` log."""
    rng = random.Random(seed)
    sim = Simulator()
    log: list = []

    def note(tag):
        log.append([sim.now, tag])

    def grid(top):
        return rng.randint(0, top) * 0.5

    fcfs = Resource(sim, capacity=2, name="fcfs")
    database = DatabaseModel(
        sim, ControlPlaneCosts(), connections=1, rng=random.Random(seed)
    )
    tasks = TaskManager(
        sim,
        database,
        max_inflight=2,
        per_type_limits={"clone": 1},
        task_deadline_s=6.0,
    )
    # The task manager's dispatch pool is the prioritised resource.
    ranked = tasks.dispatch
    lock = RWLock(sim, name="template")
    locks = LockManager(sim)

    def state(pool):
        return f"q={pool.queue_depth} u={pool.in_use}"

    def pool_user(tag, pool, start, hold, patience, priority):
        yield sim.timeout(start)
        if priority is None:
            request = pool.request()
        else:
            request = pool.request(priority=priority)
        note(f"{tag} ask {request.name} {state(pool)}")
        try:
            if patience is None:
                yield request
            else:
                yield AnyOf(sim, [request, sim.timeout(patience)])
                if not request.triggered:
                    request.withdraw()
                    note(f"{tag} gave up {state(pool)}")
                    return
        except Interrupt:
            # A direct wait is withdrawn (or its slot released) by the
            # kernel; a wait through AnyOf has to clean up for itself.
            if patience is not None:
                if request.triggered:
                    pool.release(request)
                else:
                    request.withdraw()
            note(f"{tag} interrupted waiting {state(pool)}")
            return
        note(f"{tag} granted {state(pool)}")
        try:
            yield sim.timeout(hold)
        except Interrupt:
            note(f"{tag} interrupted holding")
        finally:
            pool.release(request)
        note(f"{tag} released {state(pool)}")

    def lock_user(tag, start, mode, hold, patience):
        yield sim.timeout(start)
        event = lock.acquire(mode)
        note(f"{tag} ask {event.name} readers={lock.readers} writer={lock.writer}")
        try:
            if patience is None:
                grant = yield event
            else:
                yield AnyOf(sim, [event, sim.timeout(patience)])
                if not event.triggered:
                    lock.withdraw(event)
                    note(f"{tag} gave up")
                    return
                grant = event.value
        except Interrupt:
            if event.triggered:
                lock.release(event.value)
            else:
                lock.withdraw(event)
            note(f"{tag} interrupted waiting readers={lock.readers}")
            return
        note(f"{tag} holds readers={lock.readers} writer={lock.writer}")
        try:
            yield sim.timeout(hold)
        except Interrupt:
            note(f"{tag} interrupted holding")
        finally:
            lock.release(grant)
        note(f"{tag} unlocked readers={lock.readers} writer={lock.writer}")

    def entity_user(tag, start, write_ids, read_ids, hold):
        yield sim.timeout(start)
        try:
            grants = yield from locks.acquire(write_ids, read_ids)
        except Interrupt:
            note(f"{tag} interrupted locking")
            return
        note(f"{tag} locked {len(grants)}")
        yield sim.timeout(hold)
        locks.release(grants)
        note(f"{tag} unlocked")

    def submitter(tag, start, op_type, priority, hold):
        yield sim.timeout(start)

        def body(task):
            yield sim.timeout(hold)

        try:
            task = yield from tasks.run_task(op_type, body, priority=priority)
        except TaskDeadlineExceeded:
            note(f"{tag} deadline {state(ranked)}")
            return
        note(f"{tag} {task.state.value} waited={task.queue_wait!r} {state(ranked)}")

    # (process, start) pairs that interrupters may pick from.
    procs = []

    def spawn(start, body):
        procs.append((sim.spawn(body), start))

    for index in range(rng.randint(8, 14)):
        start = grid(20)
        patience = grid(8) if rng.random() < 0.4 else None
        spawn(start, pool_user(f"f{index}", fcfs, start, 0.5 + grid(6), patience, None))
    for index in range(rng.randint(6, 12)):
        start = grid(20)
        patience = grid(8) if rng.random() < 0.4 else None
        priority = rng.choice([1.0, 5.0, 10.0])
        spawn(start, pool_user(f"p{index}", ranked, start, 0.5 + grid(6), patience, priority))
    for index in range(rng.randint(6, 12)):
        start = grid(20)
        mode = WRITE if rng.random() < 0.3 else READ
        patience = grid(6) if rng.random() < 0.3 else None
        spawn(start, lock_user(f"l{index}", start, mode, 0.5 + grid(4), patience))
    entities = ["vm-a", "vm-b", "vm-c"]
    for index in range(rng.randint(3, 6)):
        start = grid(20)
        write_ids = rng.sample(entities, rng.randint(0, 2))
        read_ids = rng.sample(entities, rng.randint(0, 2))
        spawn(start, entity_user(f"e{index}", start, write_ids, read_ids, 0.5 + grid(4)))
    for index in range(rng.randint(4, 8)):
        op_type = rng.choice(["clone", "power_on"])
        priority = rng.choice([1.0, 5.0, 10.0])
        sim.spawn(submitter(f"t{index}", grid(20), op_type, priority, 0.5 + grid(8)))

    def interrupter(when, proc):
        yield sim.timeout(when)
        if proc.is_alive:
            proc.interrupt("chaos")
            note(f"interrupt {proc.name}")

    # Interrupts land on the grid a little after their victim starts, so
    # they hit queued waits and same-tick grants, not the start timer.
    # An interrupter's timer is older than any hold timer, so at a shared
    # tick it fires first: the release that follows grants the victim a
    # slot whose resume then queues behind the interrupt.
    for _ in range(rng.randint(12, 24)):
        proc, start = procs[rng.randrange(len(procs))]
        sim.spawn(interrupter(start + 0.5 + grid(8), proc))

    sim.run()
    note(f"end fcfs {state(fcfs)} ranked {state(ranked)} lock idle={lock.idle}")
    return log


@pytest.mark.parametrize("seed", SEEDS)
def test_contention_schedule_matches_recorded_log(seed):
    log = contention_workload(seed)
    assert log == RECORDED[str(seed)]


def test_recorded_logs_exercise_every_path():
    """The pinned logs are only worth their bytes if the paths they pin
    actually happen: withdrawals, both interrupt kinds and prioritised
    grants ahead of earlier arrivals."""
    tags = [tag for logs in RECORDED.values() for _now, tag in logs]
    for needle in (
        " gave up",
        " interrupted waiting",
        " interrupted holding",
        " deadline",
        "holds readers=2",
        "writer=True",
        "request:task-dispatch",
    ):
        assert any(needle in tag for tag in tags), needle
