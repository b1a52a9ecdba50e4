"""Condition semantics: what ``AllOf`` and ``AnyOf`` decide, and when.

``AllOf`` resumes its scan where the last one stopped, so these pin the
cases a cursor could get wrong: constituents that finish out of order, a
failure after some successes, a constituent listed twice, and
constituents that were already processed when the condition was built.
"""

import random

import pytest

from repro.sim import AllOf, AnyOf, Simulator


def settle(sim, condition):
    """Run to quiescence; return (time the condition was decided, outcome)."""
    box = {}

    def watch(event):
        box["at"] = sim.now

    condition.callbacks.append(watch)
    sim.run()
    return box.get("at"), condition


def processed_timeout(sim, delay, value=None):
    timeout = sim.timeout(delay, value=value)
    sim.run(until=timeout)
    assert timeout.processed
    return timeout


class TestOutOfOrder:
    def test_allof_waits_for_the_head_finishing_last(self):
        sim = Simulator()
        events = [sim.timeout(9.0, "a"), sim.timeout(1.0, "b"), sim.timeout(4.0, "c")]
        at, condition = settle(sim, AllOf(sim, events))
        assert at == 9.0
        assert condition.ok
        assert [condition.value[event] for event in events] == ["a", "b", "c"]

    def test_allof_waits_for_the_tail_finishing_last(self):
        sim = Simulator()
        events = [sim.timeout(1.0, "a"), sim.timeout(2.0, "b"), sim.timeout(7.0, "c")]
        at, condition = settle(sim, AllOf(sim, events))
        assert at == 7.0
        assert sorted(condition.value.values()) == ["a", "b", "c"]

    def test_allof_at_a_tie(self):
        sim = Simulator()
        events = [sim.timeout(3.0, index) for index in range(5)]
        at, condition = settle(sim, AllOf(sim, events))
        assert at == 3.0
        assert sorted(condition.value.values()) == list(range(5))

    def test_anyof_decides_on_the_first_to_finish(self):
        sim = Simulator()
        events = [sim.timeout(9.0, "a"), sim.timeout(2.0, "b"), sim.timeout(4.0, "c")]
        at, condition = settle(sim, AnyOf(sim, events))
        assert at == 2.0
        assert condition.value == {events[1]: "b"}

    @pytest.mark.parametrize("seed", range(20))
    def test_allof_matches_the_latest_completion(self, seed):
        rng = random.Random(seed)
        sim = Simulator()
        events = [sim.timeout(rng.choice([1.0, 2.0, 3.0, 5.0, 8.0])) for _ in range(12)]
        listed = events + rng.sample(events, 4)
        rng.shuffle(listed)
        at, condition = settle(sim, AllOf(sim, listed))
        assert at == max(event.delay for event in events)
        assert set(condition.value) == set(events)


class TestFailure:
    def test_failure_after_partial_success_fails_at_once(self):
        sim = Simulator()
        good = [sim.timeout(1.0), sim.timeout(2.0)]
        bad = sim.event()
        late = sim.timeout(10.0)

        def failer():
            yield sim.timeout(3.0)
            bad.fail(ValueError("nope"))

        condition = AllOf(sim, [*good, bad, late])
        sim.spawn(failer())
        at, condition = settle(sim, condition)
        assert at == 3.0
        assert not condition.ok
        with pytest.raises(ValueError, match="nope"):
            condition.value

    def test_failure_behind_the_cursor_position_still_fails(self):
        """A failing constituent listed before ones that already succeeded."""
        sim = Simulator()
        bad = sim.event()

        def failer():
            yield sim.timeout(5.0)
            bad.fail(KeyError("late"))

        condition = AllOf(sim, [bad, sim.timeout(1.0), sim.timeout(2.0)])
        sim.spawn(failer())
        at, condition = settle(sim, condition)
        assert at == 5.0
        with pytest.raises(KeyError, match="late"):
            condition.value

    def test_anyof_fails_on_a_failure_before_any_success(self):
        sim = Simulator()
        bad = sim.event()

        def failer():
            yield sim.timeout(1.0)
            bad.fail(ValueError("first"))

        condition = AnyOf(sim, [sim.timeout(4.0), bad])
        sim.spawn(failer())
        at, condition = settle(sim, condition)
        assert at == 1.0
        assert not condition.ok


class TestListedTwice:
    def test_allof_with_a_duplicate(self):
        sim = Simulator()
        shared = sim.timeout(2.0, "shared")
        other = sim.timeout(6.0, "other")
        at, condition = settle(sim, AllOf(sim, [shared, other, shared]))
        assert at == 6.0
        assert condition.value == {shared: "shared", other: "other"}

    def test_allof_of_one_event_twice(self):
        sim = Simulator()
        only = sim.timeout(3.0, "x")
        at, condition = settle(sim, AllOf(sim, [only, only]))
        assert at == 3.0
        assert condition.value == {only: "x"}

    def test_anyof_with_a_duplicate(self):
        sim = Simulator()
        shared = sim.timeout(2.0, "shared")
        at, condition = settle(sim, AnyOf(sim, [shared, sim.timeout(5.0), shared]))
        assert at == 2.0
        assert condition.value == {shared: "shared"}


class TestProcessedAtConstruction:
    def test_allof_of_processed_events_succeeds_at_construction(self):
        sim = Simulator()
        done = [processed_timeout(sim, 1.0, "a"), processed_timeout(sim, 1.0, "b")]
        condition = AllOf(sim, done)
        assert condition.triggered and condition.ok
        assert sorted(condition.value.values()) == ["a", "b"]

    def test_allof_mixing_processed_and_pending(self):
        sim = Simulator()
        done = processed_timeout(sim, 1.0, "done")
        pending = sim.timeout(4.0, "pending")
        condition = AllOf(sim, [pending, done])
        assert not condition.triggered
        at, condition = settle(sim, condition)
        assert at == 5.0
        assert condition.value == {pending: "pending", done: "done"}

    def test_allof_with_a_processed_failure_fails_at_construction(self):
        sim = Simulator()
        bad = sim.event()
        bad.fail(ValueError("already"))
        sim.run()
        assert bad.processed
        condition = AllOf(sim, [sim.timeout(1.0), bad])
        assert condition.triggered and not condition.ok
        sim.run()

    def test_anyof_with_a_processed_success_succeeds_at_construction(self):
        sim = Simulator()
        done = processed_timeout(sim, 1.0, "done")
        condition = AnyOf(sim, [sim.timeout(3.0), done])
        assert condition.triggered and condition.ok
        assert condition.value == {done: "done"}
        sim.run()
