"""Microbenchmarks of the simulation substrate itself.

Unlike the exhibit benches (single-shot experiment regeneration), these
use pytest-benchmark's repeated rounds to measure the DES kernel's raw
speed — the quantity that bounds how large a datacenter we can simulate.
"""

import random

from repro.sim import AllOf, AnyOf, Event, Resource, Simulator
from repro.storage import FairShareLink


def run_timeout_chain(events):
    sim = Simulator()

    def proc():
        for _ in range(events):
            yield sim.timeout(1.0)

    sim.spawn(proc())
    sim.run()
    return sim.now


def test_kernel_event_throughput(benchmark):
    """Dispatch 20k sequential timeout events."""
    result = benchmark(run_timeout_chain, 20_000)
    assert result == 20_000.0


def run_resource_contention(processes, cycles):
    sim = Simulator()
    resource = Resource(sim, capacity=4)
    done = []

    def proc():
        for _ in range(cycles):
            request = resource.request()
            yield request
            yield sim.timeout(1.0)
            resource.release(request)
        done.append(True)

    for _ in range(processes):
        sim.spawn(proc())
    sim.run()
    return len(done)


def test_resource_handoff_throughput(benchmark):
    """100 processes x 50 acquire/hold/release cycles on one pool."""
    result = benchmark(run_resource_contention, 100, 50)
    assert result == 100


def run_uncontended_cycles(cycles):
    """Request/release on a pool that always has a free slot: every
    request is granted at once, the path most control-plane waits take."""
    sim = Simulator()
    resource = Resource(sim, capacity=4)
    granted = 0

    def proc():
        nonlocal granted
        for _ in range(cycles):
            request = resource.request()
            yield request
            granted += 1
            resource.release(request)

    sim.spawn(proc())
    sim.run()
    return granted


def test_uncontended_request_release(benchmark):
    """20k request/yield/release cycles that never queue."""
    result = benchmark(run_uncontended_cycles, 20_000)
    assert result == 20_000


def run_deep_priority_queue(waiters, seed=0):
    """A deep prioritised queue whose waiters give up at a deadline.

    All waiters arrive at once on a one-slot pool with random priorities
    and deadlines, as tasks queue behind the task manager's dispatch slot.
    Returns (granted, withdrawn).
    """
    rng = random.Random(seed)
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    outcome = [0, 0]

    def waiter(priority, deadline):
        request = resource.request(priority=priority)
        yield AnyOf(sim, [request, sim.timeout(deadline)])
        if not request.triggered:
            request.withdraw()
            outcome[1] += 1
            return
        outcome[0] += 1
        yield sim.timeout(1.0)
        resource.release(request)

    for _ in range(waiters):
        sim.spawn(waiter(rng.choice((1.0, 5.0, 10.0)), rng.uniform(1.0, 2.0 * waiters)))
    sim.run()
    return tuple(outcome)


def test_deep_priority_queue_with_deadlines(benchmark):
    """2,000 prioritised waiters on one slot; about a fifth give up."""
    granted, withdrawn = benchmark(run_deep_priority_queue, 2_000)
    assert granted + withdrawn == 2_000
    assert granted > 0 and withdrawn > 0


def run_fair_share_churn(transfers):
    sim = Simulator()
    link = FairShareLink(sim, capacity_bps=1e6)
    finished = []

    def submit(index):
        yield sim.timeout(index * 0.1)
        transfer = yield link.transfer(1e4 + index)
        finished.append(transfer)

    for index in range(transfers):
        sim.spawn(submit(index))
    sim.run()
    return len(finished)


def test_fair_share_reschedule_cost(benchmark):
    """500 overlapping transfers forcing continual rate recomputation."""
    result = benchmark(run_fair_share_churn, 500)
    assert result == 500


def run_spawn_churn(waves, width):
    """Process churn: waves of short-lived children joined by a driver.

    Exercises the spawn bootstrap, process-end events, and the
    yield-of-a-finished-process (same-tick resume) path.
    """
    sim = Simulator()
    completed = []

    def child(index):
        yield sim.timeout(1.0 + (index % 3))
        return index

    def driver():
        for wave in range(waves):
            children = [sim.spawn(child(i)) for i in range(width)]
            yield AllOf(sim, children)
            # Joining a finished process hits the same-tick resume queue.
            completed.append((yield children[-1]))

    sim.spawn(driver())
    sim.run()
    return len(completed)


def test_spawn_churn_throughput(benchmark):
    """400 waves x 12 short-lived processes: spawn/finish/join churn."""
    result = benchmark(run_spawn_churn, 400, 12)
    assert result == 400


def run_same_tick_fanout(processes):
    """``processes`` spawns in one tick: every bootstrap and every
    completion is due at ``now``, so the whole run stays on the due-now
    FIFO. Returns the dispatch order, which must be spawn order."""
    sim = Simulator()
    order = []

    def child(index):
        order.append(index)
        return
        yield

    for index in range(processes):
        sim.spawn(child(index))
    sim.run()
    return order


def test_same_tick_fanout(benchmark):
    """50k processes spawned at t=0 dispatch in spawn order, in linear time."""
    order = benchmark(run_same_tick_fanout, 50_000)
    assert order == list(range(50_000))


def run_cancel_storm(cycles):
    """FairShareLink-style cancel/reschedule storm on the raw kernel.

    Each cycle cancels the armed completion timer and arms a fresh one —
    exactly what a fair-share link does on every membership change. Returns
    the peak heap size, which heap hygiene must keep bounded.
    """
    sim = Simulator()
    peak = 0

    def driver():
        nonlocal peak
        timer = None
        for _ in range(cycles):
            if timer is not None:
                timer.cancel()
            timer = Event(sim, name="completion")
            timer.succeed(delay=1000.0)
            if sim.queue_depth > peak:
                peak = sim.queue_depth
            yield sim.timeout(0.01)

    sim.spawn(driver())
    sim.run()
    return peak


def test_cancel_storm_heap_bounded(benchmark):
    """20k cancel/rearm cycles; the heap must stay compact throughout."""
    peak = benchmark(run_cancel_storm, 20_000)
    # Without hygiene the heap grows to ~cycles entries; with it, the dead
    # never outnumber the live by more than the compaction threshold.
    assert peak < 200


def run_batch_sampling(draws, batched):
    """Workload variate generation: arrival gap + lifetime per deploy.

    ``batched=False`` is the per-event path (``rng.expovariate`` +
    ``LifetimeModel.sample``); ``batched=True`` is the prefetched path the
    workloads use (``exponentials`` + ``LifetimeModel.draws``). Both
    consume the streams identically, so the checksum doubles as a
    value-identity spot check.
    """
    from repro.sim.random import exponentials
    from repro.workloads.lifetimes import CLOUD_A_LIFETIME

    arrivals = random.Random(0)
    lifetimes = random.Random(1)
    rate = 1.0 / 300.0
    total = 0.0
    if batched:
        gap = exponentials(arrivals, rate)
        lifetime = CLOUD_A_LIFETIME.draws(lifetimes)
        for _ in range(draws):
            total += gap() + lifetime()
    else:
        expovariate = arrivals.expovariate
        sample = CLOUD_A_LIFETIME.sample
        for _ in range(draws):
            total += expovariate(rate) + sample(lifetimes)
    return total


def test_batch_sampling_throughput(benchmark):
    """200k arrival-gap + lifetime draws through the batched samplers."""
    total = benchmark(run_batch_sampling, 200_000, True)
    assert total == run_batch_sampling(200_000, False)  # value identity


def run_storm_telemetry_off(total, concurrency):
    """A full control-plane clone storm with telemetry disabled.

    Guards the null-telemetry hot path: every instrumentation point added
    for the live pipeline costs one no-op bound-method call here, so this
    end-to-end rate catches any creep in the disabled-path overhead.
    """
    from repro.core.experiments import StormRig

    rig = StormRig(seed=0, hosts=8, datastores=2, telemetry=False)
    summary = rig.closed_loop_storm(total=total, concurrency=concurrency, linked=True)
    return int(summary["completed"])


def test_storm_telemetry_off_throughput(benchmark):
    """48 linked clones, concurrency 12, NULL_TELEMETRY instrumentation."""
    completed = benchmark(run_storm_telemetry_off, 48, 12)
    assert completed == 48


def run_storm_journal_on(total, concurrency):
    """The same clone storm with the write-ahead task journal enabled.

    The journal appends three records per task synchronously (no sim
    events), so its cost is pure Python overhead on the task lifecycle
    hot path. This rate bounds what durability costs a crash-free run.
    """
    from repro.core.experiments import StormRig

    rig = StormRig(seed=0, hosts=8, datastores=2, journal=True)
    summary = rig.closed_loop_storm(total=total, concurrency=concurrency, linked=True)
    assert len(rig.server.journal) >= 3 * total
    return int(summary["completed"])


def test_storm_journal_on_throughput(benchmark):
    """48 linked clones, concurrency 12, task journal recording."""
    completed = benchmark(run_storm_journal_on, 48, 12)
    assert completed == 48


def run_storm_bus_on(total, concurrency):
    """The same clone storm with every control-plane hop bus-mediated.

    Each submit and host-agent call becomes a publish + queued delivery +
    reply with a redelivery timer armed and cancelled, so this rate
    bounds what at-least-once transport costs a fault-free run — the
    bus-mediated analogue of the journal and telemetry storm benches.
    """
    from repro.core.experiments import StormRig

    rig = StormRig(seed=0, hosts=8, datastores=2, bus=True)
    summary = rig.closed_loop_storm(total=total, concurrency=concurrency, linked=True)
    delivered = sum(stats.delivered for stats in rig.bus.topic_stats().values())
    assert delivered > 0
    return int(summary["completed"])


def test_storm_bus_on_throughput(benchmark):
    """48 linked clones, concurrency 12, all hops through the message bus."""
    completed = benchmark(run_storm_bus_on, 48, 12)
    assert completed == 48


def run_storm_triage_on(total, concurrency):
    """The telemetry storm with the incident triage engine attached.

    Triage subscribes to the SLO monitor's fire hook and only does work
    when an alert fires, so a healthy storm's cost is the scrape + rule
    evaluation cadence plus the armed listener — this rate guards the
    "triage attached, nothing burning" overhead against the telemetry-on
    baseline.
    """
    from repro.core.experiments import StormRig
    from repro.telemetry.slo import AvailabilityRule, BurnWindow, RatioRule

    rig = StormRig(
        seed=0, hosts=8, datastores=2, telemetry=True,
        scrape_interval_s=5.0, triage=True,
    )
    windows = (BurnWindow(short_s=60.0, long_s=180.0, threshold=2.0),)
    rig.telemetry.add_rule(
        AvailabilityRule(
            name="host-availability", objective=0.99,
            metric_prefix="host_up", windows=windows,
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
    summary = rig.closed_loop_storm(total=total, concurrency=concurrency, linked=True)
    assert not rig.triage.is_null
    assert rig.telemetry.scraper.scrapes > 0
    return int(summary["completed"])


def test_storm_triage_on_throughput(benchmark):
    """48 linked clones, concurrency 12, telemetry + triage listener armed."""
    completed = benchmark(run_storm_triage_on, 48, 12)
    assert completed == 48


def run_storm_recorder_on(total, concurrency):
    """The triage storm with tail sampling and the flight recorder armed.

    The full observability stack: telemetry + triage + a SampledTracer on
    a span budget + the flight recorder listening for alerts and crashes.
    A healthy storm fires nothing, so this rate guards the steady-state
    cost of the armed recorder plus per-trace tail-sampling admission
    against the triage-on baseline.
    """
    from repro.core.experiments import StormRig
    from repro.telemetry.slo import AvailabilityRule, BurnWindow, RatioRule

    rig = StormRig(
        seed=0, hosts=8, datastores=2, telemetry=True,
        scrape_interval_s=5.0, triage=True,
        traced=True, sample_budget=1024, recorder=True,
    )
    windows = (BurnWindow(short_s=60.0, long_s=180.0, threshold=2.0),)
    rig.telemetry.add_rule(
        AvailabilityRule(
            name="host-availability", objective=0.99,
            metric_prefix="host_up", windows=windows,
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
    summary = rig.closed_loop_storm(total=total, concurrency=concurrency, linked=True)
    assert not rig.recorder.is_null
    assert rig.tracer.sampler.offered > 0
    return int(summary["completed"])


def test_storm_recorder_on_throughput(benchmark):
    """48 linked clones, concurrency 12, sampling + recorder armed."""
    completed = benchmark(run_storm_recorder_on, 48, 12)
    assert completed == 48
