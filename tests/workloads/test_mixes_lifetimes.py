"""Unit + property tests for operation mixes and lifetime models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.operations import OperationType
from repro.sim import RandomStreams
from repro.workloads import CLASSIC_DC_MIX, CLOUD_A_MIX, CLOUD_B_MIX, OperationMix
from repro.workloads.lifetimes import (
    CLASSIC_DC_LIFETIME,
    CLOUD_A_LIFETIME,
    LifetimeModel,
)


class TestOperationMix:
    def test_fractions_sum_to_one(self):
        for mix in (CLOUD_A_MIX, CLOUD_B_MIX, CLASSIC_DC_MIX):
            assert sum(mix.fractions.values()) == pytest.approx(1.0)

    def test_sampling_matches_fractions(self):
        rng = RandomStreams(3).stream("mix")
        counts = {}
        n = 40000
        for _ in range(n):
            op = CLOUD_A_MIX.sample(rng)
            counts[op] = counts.get(op, 0) + 1
        for op, fraction in CLOUD_A_MIX.items():
            assert counts.get(op, 0) / n == pytest.approx(fraction, abs=0.01)

    def test_cloud_mixes_are_provisioning_dominated(self):
        """Claim 2: clouds churn; classic datacenters don't."""
        assert CLOUD_A_MIX.provisioning_fraction() > 0.5
        assert CLOUD_B_MIX.provisioning_fraction() > 0.35
        assert CLASSIC_DC_MIX.provisioning_fraction() < 0.10

    def test_cloud_reconfiguration_heavier_than_classic(self):
        """Claim 4: reconfiguration runs more often in clouds."""
        reconfiguration = (
            OperationType.RESCAN_DATASTORE,
            OperationType.ADD_HOST,
            OperationType.ADD_DATASTORE,
            OperationType.NETWORK_RECONFIG,
        )

        def share(mix):
            return sum(mix.fraction(op) for op in reconfiguration)

        assert share(CLOUD_A_MIX) > share(CLASSIC_DC_MIX)

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            OperationMix({})

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            OperationMix({OperationType.DEPLOY: -1.0, OperationType.DESTROY: 2.0})

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            OperationMix({OperationType.DEPLOY: 0.0})

    def test_unnormalized_weights_are_normalized(self):
        mix = OperationMix({OperationType.DEPLOY: 3.0, OperationType.DESTROY: 1.0})
        assert mix.fraction(OperationType.DEPLOY) == pytest.approx(0.75)
        assert mix.fraction(OperationType.POWER_ON) == 0.0

    @given(
        weights=st.dictionaries(
            st.sampled_from(list(OperationType)),
            st.floats(min_value=0.01, max_value=100.0),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_any_mix_normalizes_and_samples_members(self, weights):
        mix = OperationMix(weights)
        assert sum(mix.fractions.values()) == pytest.approx(1.0)
        rng = RandomStreams(1).stream("m")
        for _ in range(50):
            assert mix.sample(rng) in weights


class TestLifetimeModel:
    def test_samples_positive(self):
        rng = RandomStreams(2).stream("life")
        for _ in range(1000):
            assert CLOUD_A_LIFETIME.sample(rng) > 0

    def test_cloud_lives_shorter_than_classic(self):
        rng_a = RandomStreams(2).stream("a")
        rng_b = RandomStreams(2).stream("b")
        cloud = sorted(CLOUD_A_LIFETIME.sample(rng_a) for _ in range(4001))
        classic = sorted(CLASSIC_DC_LIFETIME.sample(rng_b) for _ in range(4001))
        assert cloud[2000] < classic[2000] / 20  # medians far apart

    def test_tail_heavier_than_body(self):
        model = LifetimeModel(median_s=3600.0, tail_fraction=0.5, tail_scale_s=1e6)
        rng = RandomStreams(4).stream("life")
        samples = [model.sample(rng) for _ in range(2000)]
        assert max(samples) > 1e6

    def test_validation(self):
        with pytest.raises(ValueError):
            LifetimeModel(median_s=0.0)
        with pytest.raises(ValueError):
            LifetimeModel(median_s=1.0, tail_fraction=1.5)
