"""The exported metric catalogue of ``repro metrics`` stays fixed.

One ``cmd_metrics`` run (``--duration 300 --rate 1.2 --seed 0``: the
standard fault schedule at the CLI's 1.5 scale, 5 s scrapes, the alert
rules) must export exactly the ids in ``metric_catalogue.txt`` (160 ids
over 114 metric names), and its roll-up and alert JSONL must hash to the
recorded digest. SLO rules, triage evidence and R-F-alerts key off these
ids, so a change here is a change to every reader.
"""

import hashlib
import pathlib

from repro.faults import standard_fault_schedule
from repro.faults.chaos import ALERT_RULES, deploy_rig, run_fault_point
from repro.telemetry.export import alerts_jsonl, rollups_jsonl

CATALOGUE = pathlib.Path(__file__).with_name("metric_catalogue.txt")
EXPORT_SHA256 = "ef6e9187a630756713b9f4b126eb297e4c50a88318b3acc6a7b95c57253eb230"


def test_metrics_command_exports_the_recorded_catalogue():
    rig = deploy_rig(
        0, duration_s=300.0, arrival_rate=1.2, scrape_interval_s=5.0, rules=ALERT_RULES
    )
    run_fault_point(rig, standard_fault_schedule(300.0, scale=1.5).specs)
    telemetry = rig.env.telemetry

    assert sorted(telemetry.rollups) == CATALOGUE.read_text().split("\n")[:-1]
    digest = hashlib.sha256()
    for line in (*rollups_jsonl(telemetry), *alerts_jsonl(telemetry)):
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == EXPORT_SHA256
