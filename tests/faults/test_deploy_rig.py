"""The tenant deploy-storm rig: postures, validation and exact reruns."""

import pytest

from repro.faults import standard_fault_schedule
from repro.faults.chaos import ALERT_RULES, POSTURES, deploy_rig, run_fault_point

DURATION_S = 120.0


def _point(posture, **options):
    faults = standard_fault_schedule(DURATION_S, scale=1.5).specs
    rig = deploy_rig(0, posture, duration_s=DURATION_S, **options)
    return rig, run_fault_point(rig, faults)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"arrival_rate": 0.0},
        {"arrival_rate": -1.0},
        {"duration_s": 0.0},
        {"posture": "paranoid"},
    ],
)
def test_bad_inputs_rejected(kwargs):
    with pytest.raises(ValueError):
        deploy_rig(0, **kwargs)


def test_every_posture_sees_the_same_storm_and_holds_exactly_once():
    results = {posture: _point(posture)[1] for posture in POSTURES}
    offered = {result.counters["offered"] for result in results.values()}
    assert len(offered) == 1 and offered.pop() > 0
    for posture, result in results.items():
        assert result.ok, (posture, result.violations)
        assert result.counters["unaccounted"] == 0
        assert len(result.ground_truth) == 5
        assert len(result.timeline) == 10  # one arm and one disarm per window
    # Only the full posture sheds at the gateway.
    assert results["none"].counters["shed"] == results["retries"].counters["shed"] == 0


def test_telemetry_stops_so_the_run_quiesces():
    rig, result = _point("full", scrape_interval_s=5.0, rules=ALERT_RULES)
    telemetry = rig.env.telemetry
    assert result.ok
    assert telemetry.scraper.scrapes >= DURATION_S / 5.0
    assert [rule.name for rule in telemetry.monitor.rules] == [
        rule.name for rule in ALERT_RULES
    ]


def test_same_seed_reruns_identically():
    assert _point("full")[1] == _point("full")[1]
