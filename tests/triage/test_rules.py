"""Each triage rule fires on its synthetic signature and stays silent
otherwise.

Signals are hand-fed into roll-ups the way the scraper would land them
(counters as per-scrape deltas, probes as levels). Roll-up windows are
60 s-bucket granular, so "recent" samples sit at t >= 420 and baseline
samples at t <= 419 for a context at now=600 with a 180 s lookback.
"""

import pytest

from repro.sim.kernel import Simulator
from repro.telemetry.metrics import Telemetry
from repro.triage.evidence import EvidenceContext
from repro.triage.rules import (
    AgentDegradeRule,
    CopyFlakinessRule,
    DatastoreOutageRule,
    DbSlowdownRule,
    HostFlapRule,
    MessageDelayRule,
    MessageDropRule,
    MessageDuplicateRule,
    MessageReorderRule,
    ServerCrashRule,
    ShardCrashRule,
    TopicPartitionRule,
    default_rules,
)

NOW = 600.0


@pytest.fixture
def telemetry():
    return Telemetry(Simulator(), scrape_interval_s=5.0)


def ctx(telemetry):
    return EvidenceContext(telemetry, now=NOW)


def feed(telemetry, metric_id, kind, samples):
    series = telemetry.rollup(metric_id, kind)
    for t, v in samples:
        series.record(t, v)
    return series


class TestSilentOnEmptyTelemetry:
    def test_no_rule_fires_without_signals(self, telemetry):
        context = ctx(telemetry)
        for rule in default_rules():
            assert rule.evaluate(context) is None, rule.name


class TestServerCrash:
    def test_fires_on_crash_probe(self, telemetry):
        feed(telemetry, "server_crashed", "gauge", [(430.0, 0.0), (550.0, 1.0)])
        hypothesis = ServerCrashRule().evaluate(ctx(telemetry))
        assert hypothesis.kind == "server_crash"
        assert hypothesis.confidence == pytest.approx(0.95)

    def test_recovery_backlog_raises_confidence(self, telemetry):
        feed(telemetry, "server_crashed", "gauge", [(550.0, 1.0)])
        feed(telemetry, "recovery_parked", "gauge", [(560.0, 3.0)])
        hypothesis = ServerCrashRule().evaluate(ctx(telemetry))
        assert hypothesis.confidence == pytest.approx(0.97)
        assert len(hypothesis.evidence) == 2

    def test_silent_when_probe_stays_zero(self, telemetry):
        feed(telemetry, "server_crashed", "gauge", [(550.0, 0.0)])
        assert ServerCrashRule().evaluate(ctx(telemetry)) is None


class TestShardCrash:
    def test_fires_on_blocked_submissions(self, telemetry):
        feed(telemetry, "server_blocked", "gauge", [(550.0, 1.0)])
        hypothesis = ShardCrashRule().evaluate(ctx(telemetry))
        assert hypothesis.kind == "shard_crash"
        assert hypothesis.resource == "server"

    def test_yields_to_real_crash(self, telemetry):
        feed(telemetry, "server_blocked", "gauge", [(550.0, 1.0)])
        feed(telemetry, "server_crashed", "gauge", [(550.0, 1.0)])
        assert ShardCrashRule().evaluate(ctx(telemetry)) is None


class TestHostFlap:
    def test_names_only_hosts_that_dipped(self, telemetry):
        feed(telemetry, 'host_up{host="esx01"}', "gauge",
             [(430.0, 1.0), (500.0, 0.0)])
        feed(telemetry, 'host_up{host="esx02"}', "gauge",
             [(430.0, 1.0), (500.0, 1.0)])
        hypothesis = HostFlapRule().evaluate(ctx(telemetry))
        assert hypothesis.kind == "host_flap"
        assert hypothesis.resource == "esx01"

    def test_silent_when_fleet_healthy(self, telemetry):
        feed(telemetry, 'host_up{host="esx01"}', "gauge", [(500.0, 1.0)])
        assert HostFlapRule().evaluate(ctx(telemetry)) is None


class TestAgentDegrade:
    def fail_id(self, host):
        return f'vc-1.hostd.{host}.call_failures{{host="{host}"}}'

    def test_fires_on_failure_surge(self, telemetry):
        feed(telemetry, self.fail_id("esx03"), "counter",
             [(430.0, 2.0), (500.0, 4.0)])
        feed(telemetry, 'host_up{host="esx03"}', "gauge", [(500.0, 1.0)])
        hypothesis = AgentDegradeRule().evaluate(ctx(telemetry))
        assert hypothesis.kind == "agent_degrade"
        assert hypothesis.resource == "esx03"

    def test_breaker_trip_boosts_confidence(self, telemetry):
        feed(telemetry, self.fail_id("esx03"), "counter", [(500.0, 6.0)])
        base = AgentDegradeRule().evaluate(ctx(telemetry)).confidence
        feed(telemetry, 'hostd_breaker_state{host="esx03"}', "gauge",
             [(510.0, 2.0)])
        boosted = AgentDegradeRule().evaluate(ctx(telemetry)).confidence
        assert boosted == pytest.approx(base + 0.07)

    def test_down_hosts_are_not_blamed(self, telemetry):
        # The flap rule owns hosts that disconnected; their hostd errors
        # are a symptom, not a degradation.
        feed(telemetry, self.fail_id("esx03"), "counter", [(500.0, 6.0)])
        feed(telemetry, 'host_up{host="esx03"}', "gauge",
             [(430.0, 1.0), (500.0, 0.0)])
        assert AgentDegradeRule().evaluate(ctx(telemetry)) is None

    def test_steady_error_rate_is_baseline(self, telemetry):
        # Same per-window error rate before and during the lookback: no
        # surge, no hypothesis.
        samples = [(float(t), 3.0) for t in range(30, 600, 60)]
        feed(telemetry, self.fail_id("esx03"), "counter", samples)
        assert AgentDegradeRule().evaluate(ctx(telemetry)) is None


class TestDbSlowdown:
    def feed_latency(self, telemetry, base_mean, recent_mean):
        feed(telemetry, "vc-1.db.writes_latency:count", "counter",
             [(100.0, 4.0), (220.0, 4.0), (340.0, 4.0), (500.0, 10.0)])
        feed(telemetry, "vc-1.db.writes_latency:seconds", "counter",
             [(100.0, 4 * base_mean), (220.0, 4 * base_mean),
              (340.0, 4 * base_mean), (500.0, 10 * recent_mean)])

    def test_fires_on_latency_ratio(self, telemetry):
        self.feed_latency(telemetry, base_mean=0.05, recent_mean=0.5)
        hypothesis = DbSlowdownRule().evaluate(ctx(telemetry))
        assert hypothesis.kind == "db_slowdown"
        assert hypothesis.resource == "database"

    def test_silent_below_ratio(self, telemetry):
        self.feed_latency(telemetry, base_mean=0.05, recent_mean=0.1)
        assert DbSlowdownRule().evaluate(ctx(telemetry)) is None

    def test_pool_queue_boosts_confidence(self, telemetry):
        self.feed_latency(telemetry, base_mean=0.05, recent_mean=0.5)
        base = DbSlowdownRule().evaluate(ctx(telemetry)).confidence
        feed(telemetry, "db_pool_queue", "gauge", [(500.0, 4.0)])
        boosted = DbSlowdownRule().evaluate(ctx(telemetry)).confidence
        assert boosted == pytest.approx(base + 0.08)


class TestDatastoreOutage:
    def test_dead_datastore_named_healthy_peer_corroborates(self, telemetry):
        feed(telemetry, "vc-1.copy.attempts.lun01", "counter", [(500.0, 5.0)])
        feed(telemetry, "vc-1.copy.failures.lun01", "counter", [(500.0, 5.0)])
        feed(telemetry, "vc-1.copy.attempts.lun00", "counter", [(500.0, 6.0)])
        hypothesis = DatastoreOutageRule().evaluate(ctx(telemetry))
        assert hypothesis.kind == "datastore_outage"
        assert hypothesis.resource == "lun01"
        assert hypothesis.confidence == pytest.approx(0.85)

    def test_fast_window_sees_through_pre_outage_successes(self, telemetry):
        # Long lookback: 5/20 failures (diluted). Last 60 s: 4/4.
        feed(telemetry, "vc-1.copy.attempts.lun01", "counter",
             [(430.0, 16.0), (560.0, 4.0)])
        feed(telemetry, "vc-1.copy.failures.lun01", "counter",
             [(430.0, 1.0), (560.0, 4.0)])
        hypothesis = DatastoreOutageRule().evaluate(ctx(telemetry))
        assert hypothesis is not None
        assert hypothesis.resource == "lun01"

    def test_silent_on_partial_failures(self, telemetry):
        feed(telemetry, "vc-1.copy.attempts.lun01", "counter", [(500.0, 10.0)])
        feed(telemetry, "vc-1.copy.failures.lun01", "counter", [(500.0, 3.0)])
        assert DatastoreOutageRule().evaluate(ctx(telemetry)) is None


class TestCopyFlakiness:
    def test_fires_on_spread_partial_failures(self, telemetry):
        for ds, attempts, failures in (("lun00", 10.0, 3.0), ("lun01", 8.0, 2.0)):
            feed(telemetry, f"vc-1.copy.attempts.{ds}", "counter",
                 [(500.0, attempts)])
            feed(telemetry, f"vc-1.copy.failures.{ds}", "counter",
                 [(500.0, failures)])
        hypothesis = CopyFlakinessRule().evaluate(ctx(telemetry))
        assert hypothesis.kind == "copy_flakiness"
        assert hypothesis.resource == "copy-engine"

    def test_single_dead_datastore_is_not_flakiness(self, telemetry):
        feed(telemetry, "vc-1.copy.attempts.lun01", "counter", [(500.0, 5.0)])
        feed(telemetry, "vc-1.copy.failures.lun01", "counter", [(500.0, 5.0)])
        assert CopyFlakinessRule().evaluate(ctx(telemetry)) is None


class TestMessageDrop:
    def test_fires_and_localizes_topic(self, telemetry):
        feed(telemetry, 'bus_dropped_total{bus="bus"}', "counter",
             [(480.0, 3.0), (520.0, 2.0)])
        feed(telemetry, 'bus_topic_dropped{topic="tasks"}', "gauge",
             [(430.0, 0.0), (520.0, 5.0)])
        hypothesis = MessageDropRule().evaluate(ctx(telemetry))
        assert hypothesis.kind == "message_drop"
        assert hypothesis.resource == "tasks"

    def test_silent_on_single_drop(self, telemetry):
        feed(telemetry, 'bus_dropped_total{bus="bus"}', "counter",
             [(520.0, 1.0)])
        assert MessageDropRule().evaluate(ctx(telemetry)) is None


class TestMessageCounterRules:
    def test_duplicate_delay_reorder(self, telemetry):
        for field, rule, kind in (
            ("duplicated", MessageDuplicateRule(), "message_duplicate"),
            ("delayed", MessageDelayRule(), "message_delay"),
            ("reordered", MessageReorderRule(), "message_reorder"),
        ):
            feed(telemetry, f'bus_topic_{field}{{topic="events"}}', "gauge",
                 [(430.0, 0.0), (520.0, 6.0)])
            hypothesis = rule.evaluate(ctx(telemetry))
            assert hypothesis.kind == kind
            assert hypothesis.resource == "events"


class TestTopicPartition:
    def stall(self, telemetry):
        feed(telemetry, 'bus_topic_published{topic="tasks"}', "gauge",
             [(430.0, 10.0), (550.0, 20.0)])
        feed(telemetry, 'bus_topic_delivered{topic="tasks"}', "gauge",
             [(430.0, 10.0), (550.0, 12.0)])
        feed(telemetry, 'bus_queue_depth{topic="tasks"}', "gauge",
             [(550.0, 8.0)])

    def test_fires_on_stalled_topic(self, telemetry):
        self.stall(telemetry)
        hypothesis = TopicPartitionRule().evaluate(ctx(telemetry))
        assert hypothesis.kind == "topic_partition"
        assert hypothesis.resource == "tasks"

    def test_gated_by_drop_and_delay_counters(self, telemetry):
        self.stall(telemetry)
        feed(telemetry, 'bus_dropped_total{bus="bus"}', "counter",
             [(520.0, 2.0)])
        assert TopicPartitionRule().evaluate(ctx(telemetry)) is None

    def test_healed_signature_from_queue_wait_tail(self, telemetry):
        feed(telemetry, 'bus_queue_wait_s{bus="bus"}', "histogram",
             [(540.0, 25.0), (545.0, 32.0)])
        hypothesis = TopicPartitionRule().evaluate(ctx(telemetry))
        assert hypothesis is not None
        assert hypothesis.resource == "bus"


class TestCatalogue:
    def test_unique_kinds_and_metadata(self):
        rules = default_rules()
        kinds = [rule.kind for rule in rules]
        assert len(kinds) == len(set(kinds))
        for rule in rules:
            assert rule.summary, rule.name
            assert rule.name != "abstract"

