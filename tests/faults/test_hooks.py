"""Unit tests for the uniform fault-injection hook."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import ALL_KEYS, FaultHook, InjectedFault, TransientError
from repro.sim import Simulator


@pytest.fixture
def hook():
    return FaultHook(Simulator(), name="unit", rng=random.Random(7))


def test_unarmed_hook_returns_unit_factor(hook):
    assert not hook.armed
    assert hook.fire() == 1.0
    assert hook.injected == 0


def test_drop_rate_fails_probabilistically(hook):
    hook.set_drop("window", 0.5)
    outcomes = []
    for _ in range(200):
        try:
            hook.fire()
            outcomes.append(False)
        except InjectedFault:
            outcomes.append(True)
    failed = sum(outcomes)
    assert 60 < failed < 140
    assert hook.injected == failed


def test_drop_rates_compose_as_independent_events(hook):
    hook.set_drop("a", 0.5)
    hook.set_drop("b", 0.5)
    assert hook.drop_rate == pytest.approx(0.75)
    hook.disarm("a")
    assert hook.drop_rate == pytest.approx(0.5)


def test_drop_rate_validated(hook):
    with pytest.raises(ValueError, match="drop rate"):
        hook.set_drop("w", 1.5)


def test_latency_factors_multiply_across_sources(hook):
    hook.set_latency("a", 2.0)
    hook.set_latency("b", 3.0)
    assert hook.fire() == pytest.approx(6.0)
    hook.disarm("b")
    assert hook.fire() == pytest.approx(2.0)


def test_latency_factor_validated(hook):
    with pytest.raises(ValueError, match="latency factor"):
        hook.set_latency("w", 0.5)


def test_keyed_block_only_hits_matching_key(hook):
    hook.block("outage", key="ds-1")
    with pytest.raises(InjectedFault, match="ds-1"):
        hook.fire(key="ds-1")
    assert hook.fire(key="ds-2") == 1.0
    assert hook.fire() == 1.0  # unkeyed fire misses a keyed block


def test_star_block_hits_everything(hook):
    hook.block("outage", key=ALL_KEYS)
    with pytest.raises(InjectedFault):
        hook.fire(key="anything")
    with pytest.raises(InjectedFault):
        hook.fire()


def test_disarm_removes_every_shape_for_source(hook):
    hook.set_drop("w", 1.0)
    hook.set_latency("w", 4.0)
    hook.block("w")
    hook.set_latency("other", 2.0)
    hook.disarm("w")
    assert hook.fire() == pytest.approx(2.0)  # other window still armed
    assert hook.armed


def test_error_factory_controls_exception_type():
    class AgentDown(TransientError):
        pass

    hook = FaultHook(Simulator(), name="agent", error_factory=AgentDown)
    hook.block("w")
    with pytest.raises(AgentDown):
        hook.fire()


@pytest.mark.parametrize(
    "setter,value,match",
    [
        ("set_duplicate", 1.5, "duplicate rate"),
        ("set_reorder", -0.1, "reorder rate"),
        ("set_delay", -1.0, "delay"),
    ],
)
def test_message_shapes_validated(hook, setter, value, match):
    with pytest.raises(ValueError, match=match):
        getattr(hook, setter)("w", value)


# -- composition property ---------------------------------------------------

TOKENS = ("w1", "w2", "w3")
RATE_SHAPES = ("drop", "duplicate", "reorder")

_step = st.one_of(
    st.tuples(
        st.sampled_from(RATE_SHAPES), st.sampled_from(TOKENS),
        st.floats(0.0, 1.0, allow_nan=False),
    ),
    st.tuples(
        st.just("delay"), st.sampled_from(TOKENS), st.floats(0.0, 60.0, allow_nan=False)
    ),
    st.tuples(
        st.just("latency"), st.sampled_from(TOKENS), st.floats(1.0, 20.0, allow_nan=False)
    ),
    st.tuples(st.just("block"), st.sampled_from(TOKENS), st.sampled_from((ALL_KEYS, "ds-1"))),
    st.tuples(st.just("disarm"), st.sampled_from(TOKENS), st.none()),
)


def _arm(hook, shape, token, value):
    {
        "drop": hook.set_drop,
        "duplicate": hook.set_duplicate,
        "reorder": hook.set_reorder,
        "delay": hook.set_delay,
        "latency": hook.set_latency,
        "block": lambda source, key: hook.block(source, key=key),
    }[shape](token, value)


def _combined(rates):
    survive = 1.0
    for rate in rates:
        survive *= 1.0 - rate
    return 1.0 - survive


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(_step, max_size=30))
def test_combined_queries_follow_the_live_windows(steps):
    """Every combined query equals a recomputation over the live windows.

    The model is a plain list of live ``(token, shape, value)`` windows in
    arming order: re-arming a shape under a live token replaces its value
    in place, and disarming a token removes every window it armed.
    """
    hook = FaultHook(Simulator(), name="prop")
    live: list[list] = []
    for shape, token, value in steps:
        if shape == "disarm":
            hook.disarm(token)
            live = [entry for entry in live if entry[0] != token]
        else:
            _arm(hook, shape, token, value)
            for entry in live:
                if entry[0] == token and entry[1] == shape:
                    entry[2] = value
                    break
            else:
                live.append([token, shape, value])

        def values(wanted):
            return [value for _, shape, value in live if shape == wanted]

        assert hook.armed == bool(live)
        assert hook.drop_rate == _combined(values("drop"))
        assert hook.duplicate_rate == _combined(values("duplicate"))
        assert hook.reorder_rate == _combined(values("reorder"))
        assert hook.delay_s == max(values("delay"), default=0.0)
        factor = 1.0
        for latency in values("latency"):
            factor *= latency
        assert hook.latency_factor == factor
        blocks = values("block")
        assert hook.blocked() == (ALL_KEYS in blocks)
        assert hook.blocked("ds-1") == bool(blocks)
        assert hook.blocked("ds-2") == (ALL_KEYS in blocks)
