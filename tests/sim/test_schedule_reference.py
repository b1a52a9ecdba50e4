"""The kernel schedule against a ``(time, sequence)`` tuple-heap reference.

Hypothesis draws small programs of ``timeout``, ``call_later``,
``succeed(delay=)``, ``fail``, ``cancel``, ``spawn``, ``interrupt`` and
``run(until=h)``. Timer callbacks run nested programs of their own, and
processes sleep on timeouts or wait on the program's events. Delays come
from a three-value set, so ties at one time are the common case rather
than the rare one.

Each program runs twice: on :class:`Simulator`, and on the reference
below — one ``heapq`` heap of ``(time, sequence, action)`` tuples that
takes a sequence number exactly where the kernel does. Both must produce
the same log of ``(now, label)`` dispatches, end at the same ``now``
and consume the same number of sequence numbers.
"""

from heapq import heappop, heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Call, Interrupt, Simulator

DELAYS = st.sampled_from([0.0, 0.5, 1.0])
INDEX = st.integers(min_value=0, max_value=7)
STEPS = st.lists(
    st.tuples(st.just("sleep"), DELAYS) | st.tuples(st.just("wait"), INDEX),
    max_size=4,
)
LEAF = (
    st.tuples(st.sampled_from(["timeout", "call_later", "succeed", "fail"]), DELAYS, st.just(()))
    | st.tuples(st.sampled_from(["cancel", "interrupt"]), INDEX)
    | st.tuples(st.just("spawn"), STEPS)
)
OPS = st.recursive(
    LEAF,
    lambda inner: st.tuples(
        st.sampled_from(["timeout", "call_later", "succeed", "fail"]),
        DELAYS,
        st.lists(inner, max_size=3).map(tuple),
    ),
    max_leaves=12,
)
PROGRAMS = st.lists(OPS | st.tuples(st.just("run"), st.sampled_from([0.0, 0.5, 1.0, 2.5])), max_size=12)


class Boom(Exception):
    """The failure a ``fail`` op carries."""


class _World:
    """Runs one program against some kernel; subclasses bind the kernel."""

    def __init__(self) -> None:
        self.log: list[tuple[float, object]] = []
        self.events: list = []
        self.processes: list = []
        self.labels = 0

    def execute(self, ops) -> None:
        for op in ops:
            kind = op[0]
            if kind == "run":
                self.run_until(self.now() + op[1])
            elif kind in ("timeout", "call_later", "succeed", "fail"):
                self.labels += 1
                self.schedule(kind, op[1], self.labels, op[2])
            elif kind == "cancel":
                if self.events:
                    self.cancel(self.events[op[1] % len(self.events)])
            elif kind == "interrupt":
                if self.processes:
                    self.interrupt(self.processes[op[1] % len(self.processes)])
            else:
                self.labels += 1
                self.spawn(self.labels, op[1])

    def fired(self, label, children):
        def callback(*_event) -> None:
            self.log.append((self.now(), label))
            self.execute(children)

        return callback


class _Kernel(_World):
    """The program on :class:`Simulator`."""

    def __init__(self) -> None:
        super().__init__()
        self.sim = Simulator()

    def now(self) -> float:
        return self.sim.now

    def run_until(self, horizon) -> None:
        self.sim.run(until=horizon)

    def run(self) -> None:
        self.sim.run()

    def schedule(self, kind, delay, label, children) -> None:
        sim = self.sim
        callback = self.fired(label, children)
        if kind == "call_later":
            sim.call_later(delay, Call(callback))
            return
        if kind == "timeout":
            event = sim.timeout(delay)
        elif kind == "succeed":
            event = sim.event().succeed(label, delay=delay)
        else:
            event = sim.event().fail(Boom(label), delay=delay)
        event.callbacks.append(callback)
        self.events.append(event)

    def cancel(self, event) -> None:
        if not event.processed:
            event.cancel()

    def interrupt(self, process) -> None:
        if process.is_alive:
            process.interrupt("stop")

    def spawn(self, label, steps) -> None:
        sim = self.sim

        def body():
            self.log.append((sim.now, (label, "start")))
            for index, (kind, arg) in enumerate(steps):
                if kind == "wait" and self.events:
                    target = self.events[arg % len(self.events)]
                else:
                    target = sim.timeout(arg if kind == "sleep" else 0.0)
                try:
                    yield target
                except Interrupt:
                    outcome = "interrupted"
                except Boom:
                    outcome = "failed"
                else:
                    outcome = "ok"
                self.log.append((sim.now, (label, index, outcome)))

        process = sim.spawn(body())
        process.callbacks.append(lambda _event: self.log.append((sim.now, (label, "exit"))))
        self.processes.append(process)


class _RefEvent:
    """A reference event: a state, a callback list and an outcome."""

    def __init__(self, failed: bool = False) -> None:
        self.state = "triggered"
        self.failed = failed
        self.callbacks: list = []

    def fire(self) -> None:
        self.state = "processed"
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)


class _RefProcess:
    """A reference process: the kernel's bootstrap, resume, same-tick
    resume and interrupt rules, each taking a sequence number where
    :class:`~repro.sim.kernel.Process` does."""

    def __init__(self, world: "_Reference", label, steps) -> None:
        self.world = world
        self.label = label
        self.steps = steps
        self.index = 0
        self.alive = True
        self.waiting = None
        self.done = _RefEvent()
        self.done.state = "pending"
        self.done.callbacks.append(lambda _event: world.log.append((world.clock, (label, "exit"))))
        world.push(0.0, self.bootstrap)

    def bootstrap(self) -> None:
        self.world.log.append((self.world.clock, (self.label, "start")))
        self.advance()

    def advance(self) -> None:
        world = self.world
        if self.index == len(self.steps):
            self.alive = False
            self.done.state = "triggered"
            world.push(0.0, self.done.fire)
            return
        kind, arg = self.steps[self.index]
        if kind == "wait" and world.events:
            target = world.events[arg % len(world.events)]
        else:
            target = _RefEvent()
            world.push(arg if kind == "sleep" else 0.0, target.fire)
        self.waiting = target
        if target.state == "processed":
            world.push(0.0, lambda: self.waiting is target and self.resume(target))
        else:
            target.callbacks.append(self.resume)

    def finish_step(self, outcome) -> None:
        self.world.log.append((self.world.clock, (self.label, self.index, outcome)))
        self.index += 1
        self.advance()

    def resume(self, event: _RefEvent) -> None:
        self.waiting = None
        self.finish_step("failed" if event.failed else "ok")

    def throw_in(self) -> None:
        if not self.alive:
            return
        if self.waiting is not None and self.resume in self.waiting.callbacks:
            self.waiting.callbacks.remove(self.resume)
        self.waiting = None
        self.finish_step("interrupted")


class _Reference(_World):
    """The program on one ``(time, sequence, action)`` tuple heap."""

    def __init__(self) -> None:
        super().__init__()
        self.clock = 0.0
        self.sequence = 0
        self.heap: list = []

    def now(self) -> float:
        return self.clock

    def push(self, delay, action, event=None) -> None:
        self.sequence += 1
        heappush(self.heap, (self.clock + delay, self.sequence, action, event))

    def run_until(self, horizon=None) -> None:
        heap = self.heap
        while heap:
            when, _sequence, action, event = heap[0]
            if event is not None and event.state == "cancelled":
                # A dead entry leaves without moving the clock.
                heappop(heap)
                continue
            if horizon is not None and when > horizon:
                break
            heappop(heap)
            self.clock = when
            action()
        if horizon is not None:
            self.clock = horizon

    def run(self) -> None:
        self.run_until()

    def schedule(self, kind, delay, label, children) -> None:
        callback = self.fired(label, children)
        if kind == "call_later":
            self.push(delay, callback)
            return
        event = _RefEvent(failed=kind == "fail")
        event.callbacks.append(callback)
        self.push(delay, event.fire, event)
        self.events.append(event)

    def cancel(self, event) -> None:
        if event.state != "processed":
            event.state = "cancelled"

    def interrupt(self, process) -> None:
        if process.alive:
            self.push(0.0, process.throw_in)

    def spawn(self, label, steps) -> None:
        self.processes.append(_RefProcess(self, label, steps))


@given(program=PROGRAMS)
@settings(max_examples=300, deadline=None)
def test_dispatch_matches_the_tuple_heap_reference(program):
    kernel, reference = _Kernel(), _Reference()
    for world in (kernel, reference):
        world.execute(program)
        world.run()
    assert kernel.log == reference.log
    assert all(type(when) is float for when, _label in kernel.log)
    assert type(kernel.sim.now) is float
    assert kernel.sim.now == reference.clock
    assert kernel.sim._sequence == reference.sequence
    assert kernel.sim.queue_depth == 0


def test_reference_sees_a_same_tick_tie_in_sequence_order():
    """A hand-made tie the property test relies on: three entries at t=1
    scheduled from different times dispatch by sequence, and an entry
    scheduled at t=1 for t=1 runs behind them."""
    program = [
        ("timeout", 1.0, (("call_later", 0.0, ()),)),
        ("run", 0.5),
        ("succeed", 0.5, ()),
        ("call_later", 0.5, ()),
    ]
    kernel, reference = _Kernel(), _Reference()
    for world in (kernel, reference):
        world.execute(program)
        world.run()
    assert kernel.log == reference.log == [(1.0, 1), (1.0, 2), (1.0, 3), (1.0, 4)]
