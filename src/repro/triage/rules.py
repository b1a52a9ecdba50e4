"""The triage rule catalogue: one rule per nameable fault kind.

Each rule reads signals through the :class:`~repro.triage.evidence.EvidenceContext`
and either returns a :class:`~repro.triage.evidence.Hypothesis` (with the
evidence chain that supports it) or ``None``. Rules are designed to be
*discriminating*, not merely sensitive: the gating conditions below are
what keep, say, an agent degradation from being blamed on the hosts a
flap took down, or a datastore outage from reading as generic copy
flakiness. The catalogue (``default_rules()``) is evaluated in full on
every triage and the engine ranks whatever fires by confidence.

Signal map (docs/triage.md renders this as the rule catalogue):

====================  ====================================================
``server_crash``      ``server_crashed`` probe hit 1 in the lookback
                      (+ ``recovery_parked`` backlog as evidence)
``shard_crash``       ``server_blocked`` hit 1 while ``server_crashed``
                      stayed 0 (submissions refused, server alive)
``host_flap``         ``host_up{host=}`` dipped to 0 for specific hosts
``agent_degrade``     per-host hostd ``call_failures``/``timeouts`` rate
                      far above baseline on hosts that stayed *up*
                      (+ breaker state as corroboration)
``db_slowdown``       ``db_utilization`` level high and well above its
                      baseline, pool queue growth and span db-share boosts
``datastore_outage``  copy failure fraction ~1.0 concentrated on specific
                      datastore(s) while other datastores stay healthy
``copy_flakiness``    partial copy-failure fractions spread across
                      datastores
``message_drop``      ``bus_dropped_total`` deltas (+ per-topic ``dropped``
                      probes to localize, redeliveries as corroboration)
``message_duplicate`` per-topic ``duplicated``/``deduped`` growth
``message_delay``     per-topic ``delayed`` growth
``message_reorder``   per-topic ``reordered`` growth
``topic_partition``   a topic published into but not delivering (queue
                      builds, nothing dropped) — or, post-heal, huge
                      queue waits with zero drop/delay counters
====================  ====================================================
"""

from __future__ import annotations

import re
import typing

from repro.telemetry.slo import BASELINE_S, LOOKBACK_S
from repro.triage.evidence import Evidence, EvidenceContext, Hypothesis

_HOSTD_FAILURES = re.compile(r"(?:^|\.)hostd\..+\.(call_failures|timeouts)$")
_DB_LATENCY = re.compile(r"(?:^|\.)db\..+_latency:seconds$")
_COPY_COUNTER = re.compile(r"(?:^|\.)copy\.(attempts|failures)\.([^.{]+)$")


class TriageRule:
    """One fault-kind detector; subclasses implement :meth:`evaluate`."""

    name: str = "abstract"
    kind: str = "abstract"
    phase: str = "task"
    summary: str = ""

    def evaluate(self, ctx: EvidenceContext) -> Hypothesis | None:
        raise NotImplementedError

    def _hypothesis(
        self,
        resource: str,
        confidence: float,
        evidence: typing.Sequence[Evidence],
    ) -> Hypothesis:
        return Hypothesis(
            kind=self.kind,
            resource=resource,
            phase=self.phase,
            confidence=confidence,
            evidence=tuple(evidence),
            rule=self.name,
        )


class ServerCrashRule(TriageRule):
    name = "server-crash"
    kind = "server_crash"
    phase = "recovery"
    summary = "server_crashed probe hit 1; recovery backlog corroborates"

    def evaluate(self, ctx):
        crashed = [m for m in ctx.find("server_crashed") if ctx.recent_max(m) >= 1.0]
        if not crashed:
            return None
        evidence = [
            Evidence(m, "management server observed down", ctx.recent_max(m))
            for m in crashed
        ]
        confidence = 0.95
        for m in ctx.find("recovery_parked"):
            parked = ctx.recent_max(m)
            if parked > 0:
                evidence.append(
                    Evidence(m, "crash-interrupted tasks parked for recovery", parked)
                )
                confidence = 0.97
        return self._hypothesis("server", confidence, evidence)


class ShardCrashRule(TriageRule):
    name = "shard-crash"
    kind = "shard_crash"
    phase = "task"
    summary = "submissions refused (server_blocked=1) while the server stayed up"

    def evaluate(self, ctx):
        blocked = [m for m in ctx.find("server_blocked") if ctx.recent_max(m) >= 1.0]
        if not blocked:
            return None
        if any(ctx.recent_max(m) >= 1.0 for m in ctx.find("server_crashed")):
            return None  # a real crash explains the refusals better
        evidence = [
            Evidence(m, "shard refusing submissions (fault-blocked)", 1.0)
            for m in blocked
        ]
        return self._hypothesis("server", 0.92, evidence)


def _hosts_down(ctx: EvidenceContext) -> dict[str, str]:
    """host name -> host_up metric id, for hosts that dipped to 0."""
    down = {}
    for metric_id in ctx.find("host_up"):
        minimum = ctx.recent_min(metric_id)
        if minimum is not None and minimum <= 0.0:
            down[ctx.labels(metric_id).get("host", metric_id)] = metric_id
    return down


class HostFlapRule(TriageRule):
    name = "host-flap"
    kind = "host_flap"
    phase = "agent"
    summary = "host_up{host=} dipped to 0 for specific hosts"

    def evaluate(self, ctx):
        down = _hosts_down(ctx)
        if not down:
            return None
        evidence = [
            Evidence(metric_id, f"host {host} observed disconnected", 0.0)
            for host, metric_id in sorted(down.items())
        ]
        return self._hypothesis(",".join(sorted(down)), 0.9, evidence)


class AgentDegradeRule(TriageRule):
    name = "agent-degrade"
    kind = "agent_degrade"
    phase = "agent"
    summary = (
        "hostd call failures/timeouts far above baseline on hosts still up; "
        "breaker trips corroborate"
    )
    min_failures = 3.0
    rate_ratio = 3.0

    def evaluate(self, ctx):
        down = set(_hosts_down(ctx))
        per_host: dict[str, list[str]] = {}
        for metric_id in ctx.find(lambda n: _HOSTD_FAILURES.search(n) is not None):
            host = ctx.labels(metric_id).get("host")
            if host is None or host in down:
                continue
            per_host.setdefault(host, []).append(metric_id)
        culprits: list[tuple[str, float, float]] = []
        for host, ids in sorted(per_host.items()):
            recent = sum(ctx.recent_sum(m) for m in ids)
            baseline = sum(ctx.baseline_rate(m) for m in ids) * LOOKBACK_S
            if recent >= self.min_failures and recent > self.rate_ratio * baseline + 1.0:
                culprits.append((host, recent, baseline))
        if not culprits:
            return None
        total = sum(recent for _, recent, _ in culprits)
        evidence = [
            Evidence(
                f"hostd[{host}]",
                f"host {host} call failures/timeouts surged",
                recent,
                baseline,
            )
            for host, recent, baseline in culprits
        ]
        confidence = 0.55 + 0.3 * min(1.0, total / 20.0)
        tripped = [
            m
            for m in ctx.find("hostd_breaker_state")
            if ctx.labels(m).get("host") in {h for h, _, _ in culprits}
            and ctx.recent_max(m) >= 1.0
        ]
        if tripped:
            confidence += 0.07
            evidence.append(
                Evidence(
                    "hostd_breaker_state",
                    "circuit breaker tripped on the degraded host(s)",
                    float(len(tripped)),
                )
            )
        resource = ",".join(sorted(host for host, _, _ in culprits))
        return self._hypothesis(resource, confidence, evidence)


class DbSlowdownRule(TriageRule):
    name = "db-slowdown"
    kind = "db_slowdown"
    phase = "db"
    summary = (
        "db mean op latency a multiple of its baseline; utilization rise, "
        "pool-queue growth and span db-share boost confidence"
    )

    #: recent mean service time must exceed this multiple of baseline.
    latency_ratio = 3.0

    def evaluate(self, ctx):
        # Primary signal: windowed mean service time of the db op
        # recorders (``vc-1.db.writes_latency:seconds`` over ``:count``)
        # against the pre-lookback baseline. Utilization alone is too
        # weak — a lightly loaded pool can be 25x slower without ever
        # saturating.
        ratios = []
        for seconds_id in ctx.find(lambda n: _DB_LATENCY.search(n) is not None):
            count_id = seconds_id.replace(":seconds", ":count")
            recent_n = ctx.recent_sum(count_id)
            base_n = ctx.baseline_rate(count_id) * BASELINE_S
            if recent_n < 5 or base_n < 5:
                continue
            recent_mean = ctx.recent_sum(seconds_id) / recent_n
            base_mean = ctx.baseline_rate(seconds_id) * BASELINE_S / base_n
            if base_mean <= 0:
                continue
            ratios.append((recent_mean / base_mean, seconds_id, recent_mean, base_mean))
        if not ratios:
            return None
        ratio, seconds_id, recent_mean, base_mean = max(ratios)
        if ratio < self.latency_ratio:
            return None
        evidence = [
            Evidence(
                seconds_id,
                f"db mean op latency {ratio:.1f}x its baseline",
                recent_mean,
                base_mean,
            )
        ]
        confidence = 0.6 + 0.2 * min(1.0, (ratio - self.latency_ratio) / 20.0)
        ids = ctx.find("db_utilization")
        if ids:
            util = ctx.recent_mean(ids[0])
            base = ctx.baseline_mean(ids[0])
            if util >= 2.0 * (base + 0.02):
                confidence += 0.08
                evidence.append(
                    Evidence(ids[0], "db pool utilization elevated", util, base)
                )
        for queue_id in ctx.find("db_pool_queue"):
            queue = ctx.recent_mean(queue_id)
            queue_base = ctx.baseline_mean(queue_id)
            if queue >= 1.0 and queue > 2.0 * (queue_base + 0.1):
                confidence += 0.08
                evidence.append(
                    Evidence(queue_id, "db pool queue building", queue, queue_base)
                )
                break
        db_share = ctx.phase_shares().get("db", 0.0)
        if db_share >= 0.25:
            confidence += 0.07
            evidence.append(
                Evidence(
                    "spans:phase_attribution",
                    "db dominates exclusive time in recent spans",
                    db_share,
                )
            )
        return self._hypothesis("database", confidence, evidence)


def _copy_failure_fractions(
    ctx: EvidenceContext, seconds: float | None = None
) -> dict[str, tuple[float, float]]:
    """datastore name -> (attempts, failures) over the trailing window."""
    per_ds: dict[str, dict[str, float]] = {}
    for metric_id, in_name, _labels in ctx._parsed:
        match = _COPY_COUNTER.search(in_name)
        if match is None:
            continue
        which, datastore = match.group(1), match.group(2)
        per_ds.setdefault(datastore, {"attempts": 0.0, "failures": 0.0})
        per_ds[datastore][which] += ctx.recent_sum(metric_id, seconds)
    return {
        ds: (counts["attempts"], counts["failures"])
        for ds, counts in per_ds.items()
    }


class DatastoreOutageRule(TriageRule):
    name = "datastore-outage"
    kind = "datastore_outage"
    phase = "copy"
    summary = (
        "copy failure fraction ~1.0 concentrated on specific datastore(s) "
        "while others stay healthy"
    )

    #: fast window for spotting a datastore going dark — a full lookback
    #: still holds minutes of healthy pre-outage copies that dilute the
    #: failure fraction below any sane threshold.
    fast_window_s = 60.0

    def evaluate(self, ctx):
        fractions = _copy_failure_fractions(ctx)
        fast = _copy_failure_fractions(ctx, seconds=self.fast_window_s)
        dead = []
        healthy = 0
        for ds, (attempts, failures) in sorted(fractions.items()):
            fast_attempts, fast_failures = fast.get(ds, (0.0, 0.0))
            for n, bad in ((attempts, failures), (fast_attempts, fast_failures)):
                # 0.8, not ~1.0: successes from just before the outage
                # armed sit inside the same window and dilute the ratio.
                if n >= 3 and bad / n >= 0.8:
                    dead.append((ds, n, bad))
                    break
            else:
                if attempts >= 3 and failures / attempts <= 0.5:
                    healthy += 1
        if not dead:
            return None
        evidence = [
            Evidence(
                f"copy[{ds}]",
                f"copies into {ds} failing ({failures:.0f}/{attempts:.0f})",
                failures / attempts,
            )
            for ds, attempts, failures in dead
        ]
        confidence = 0.85 if healthy else 0.7
        if healthy:
            evidence.append(
                Evidence(
                    "copy[*]",
                    "other datastores accepting copies normally",
                    float(healthy),
                )
            )
        return self._hypothesis(
            ",".join(ds for ds, _, _ in dead), confidence, evidence
        )


class CopyFlakinessRule(TriageRule):
    name = "copy-flakiness"
    kind = "copy_flakiness"
    phase = "copy"
    summary = "partial copy-failure fractions spread across datastores"

    def evaluate(self, ctx):
        fractions = _copy_failure_fractions(ctx)
        partial = []
        total_failures = 0.0
        for ds, (attempts, failures) in sorted(fractions.items()):
            if attempts < 2 or failures == 0:
                continue
            fraction = failures / attempts
            total_failures += failures
            if 0.05 <= fraction < 0.9:
                partial.append((ds, attempts, failures))
        if len(partial) < 2 or total_failures < 3:
            return None
        evidence = [
            Evidence(
                f"copy[{ds}]",
                f"copies into {ds} partially failing ({failures:.0f}/{attempts:.0f})",
                failures / attempts,
            )
            for ds, attempts, failures in partial
        ]
        confidence = 0.6 + 0.25 * min(1.0, total_failures / 10.0)
        return self._hypothesis("copy-engine", confidence, evidence)


def _per_topic_increase(ctx: EvidenceContext, field: str) -> dict[str, float]:
    """topic -> growth of the cumulative per-topic probe over the lookback."""
    out: dict[str, float] = {}
    for metric_id in ctx.find(f"bus_topic_{field}"):
        increase = ctx.increase(metric_id)
        if increase > 0:
            out[ctx.labels(metric_id).get("topic", metric_id)] = increase
    return out


def _top_topic(per_topic: dict[str, float]) -> str:
    return max(sorted(per_topic), key=lambda topic: per_topic[topic])


class MessageDropRule(TriageRule):
    name = "message-drop"
    kind = "message_drop"
    phase = "bus"
    summary = (
        "bus_dropped_total deltas; per-topic dropped probes localize, "
        "redeliveries corroborate"
    )

    def evaluate(self, ctx):
        drops = ctx.sum_over(ctx.find("bus_dropped_total"))
        if drops < 2:
            return None
        evidence = [
            Evidence("bus_dropped_total", "messages lost in transit", drops)
        ]
        per_topic = _per_topic_increase(ctx, "dropped")
        resource = "bus"
        if per_topic:
            resource = _top_topic(per_topic)
            evidence.append(
                Evidence(
                    f"bus_topic_dropped[{resource}]",
                    f"drops concentrated on topic {resource}",
                    per_topic[resource],
                )
            )
        redelivered = ctx.sum_over(ctx.find("bus_redelivered_total"))
        if redelivered > 0:
            evidence.append(
                Evidence(
                    "bus_redelivered_total",
                    "redelivery timers resending lost messages",
                    redelivered,
                )
            )
        confidence = 0.7 + 0.2 * min(1.0, drops / 10.0)
        return self._hypothesis(resource, confidence, evidence)


class MessageDuplicateRule(TriageRule):
    name = "message-duplicate"
    kind = "message_duplicate"
    phase = "bus"
    summary = "per-topic duplicated growth; dedup suppressions corroborate"

    def evaluate(self, ctx):
        per_topic = _per_topic_increase(ctx, "duplicated")
        duplicated = sum(per_topic.values())
        if duplicated < 2:
            return None
        resource = _top_topic(per_topic)
        evidence = [
            Evidence("bus_topic_duplicated", "duplicate copies injected", duplicated)
        ]
        deduped = ctx.sum_over(ctx.find("bus_deduped_total"))
        if deduped > 0:
            evidence.append(
                Evidence(
                    "bus_deduped_total",
                    "idempotency keys absorbing the duplicates",
                    deduped,
                )
            )
        confidence = 0.6 + 0.2 * min(1.0, duplicated / 10.0)
        return self._hypothesis(resource, confidence, evidence)


class MessageDelayRule(TriageRule):
    name = "message-delay"
    kind = "message_delay"
    phase = "bus"
    summary = "per-topic delayed growth (publishes stalled in transit)"

    def evaluate(self, ctx):
        per_topic = _per_topic_increase(ctx, "delayed")
        delayed = sum(per_topic.values())
        if delayed < 2:
            return None
        resource = _top_topic(per_topic)
        evidence = [
            Evidence("bus_topic_delayed", "publishes stalled by transit delay", delayed)
        ]
        confidence = 0.65 + 0.2 * min(1.0, delayed / 20.0)
        return self._hypothesis(resource, confidence, evidence)


class MessageReorderRule(TriageRule):
    name = "message-reorder"
    kind = "message_reorder"
    phase = "bus"
    summary = "per-topic reordered growth (messages jumping the queue)"

    def evaluate(self, ctx):
        per_topic = _per_topic_increase(ctx, "reordered")
        reordered = sum(per_topic.values())
        if reordered < 2:
            return None
        resource = _top_topic(per_topic)
        evidence = [
            Evidence("bus_topic_reordered", "messages jumped the queue", reordered)
        ]
        confidence = 0.55 + 0.2 * min(1.0, reordered / 20.0)
        return self._hypothesis(resource, confidence, evidence)


class TopicPartitionRule(TriageRule):
    name = "topic-partition"
    kind = "topic_partition"
    phase = "bus"
    summary = (
        "a topic published into but not delivering with queue building and "
        "nothing dropped; post-heal: huge queue waits, zero drop/delay counters"
    )

    def evaluate(self, ctx):
        dropped = ctx.sum_over(ctx.find("bus_dropped_total"))
        delayed = sum(_per_topic_increase(ctx, "delayed").values())
        if dropped > 0 or delayed > 0:
            return None  # those counters name a different bus fault
        # Active-partition signature: messages published but parked — a
        # deep queue *now* plus a published-minus-delivered gap over the
        # lookback. (Comparing increases alone is not enough: deliveries
        # from before the partition sit inside the same window.)
        published = _per_topic_increase(ctx, "published")
        delivered = _per_topic_increase(ctx, "delivered")
        stalled = []
        for topic, pub in sorted(published.items()):
            gap = pub - delivered.get(topic, 0.0)
            if gap < 4:
                continue
            depth_ids = ctx.find("bus_queue_depth", topic=topic)
            depth = max((ctx.recent_max(m) for m in depth_ids), default=0.0)
            if depth >= 4:
                stalled.append((topic, gap, depth))
        if stalled:
            topic, gap, depth = max(stalled, key=lambda item: item[2])
            evidence = [
                Evidence(
                    f"bus_topic_published[{topic}]",
                    f"topic {topic} published {gap:g} more than it delivered",
                    gap,
                ),
                Evidence(
                    f"bus_queue_depth[{topic}]", "backlog parked behind it", depth
                ),
            ]
            return self._hypothesis(
                topic, 0.85 + 0.05 * min(1.0, depth / 16.0), evidence
            )
        # Healed-partition signature: the backlog just drained, so the
        # queue-wait histogram grows a tail far beyond any delay fault
        # (seconds) or the redelivery path (which drops messages first).
        for metric_id in ctx.find("bus_queue_wait_s"):
            window = ctx.recent(metric_id)
            if window.count < 2:
                continue
            parked = float(window.hist.count_at_or_above(10.0))
            if parked >= 2:
                evidence = [
                    Evidence(
                        metric_id,
                        "deliveries with queue waits beyond delay/redelivery "
                        "timescales",
                        parked,
                    )
                ]
                return self._hypothesis(
                    "bus", 0.6 + 0.2 * min(1.0, parked / 32.0), evidence
                )
        return None


def default_rules() -> list[TriageRule]:
    """The full catalogue, in deterministic evaluation order."""
    return [
        ServerCrashRule(),
        ShardCrashRule(),
        HostFlapRule(),
        AgentDegradeRule(),
        DbSlowdownRule(),
        DatastoreOutageRule(),
        CopyFlakinessRule(),
        MessageDropRule(),
        MessageDuplicateRule(),
        MessageDelayRule(),
        MessageReorderRule(),
        TopicPartitionRule(),
    ]
