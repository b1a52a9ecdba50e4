"""Tests for the API gateway: sessions and admission throttling."""

import pytest

from repro.cloud import Organization, User
from repro.cloud.api import ApiGateway, SessionError
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def org():
    return Organization("acme")


@pytest.fixture
def user(org):
    return User("alice", org)


def drive(sim, generator):
    box = {}

    def proc():
        box["value"] = yield from generator

    process = sim.spawn(proc())
    sim.run(until=process)
    return box["value"]


class TestSessions:
    def test_closed_session_fails_validation(self, sim, user):
        gateway = ApiGateway(sim, session_idle_timeout_s=100.0)
        session = gateway.login(user)
        sim.run(until=200.0)
        with pytest.raises(SessionError, match="expired"):
            gateway.validate(session)
        with pytest.raises(SessionError, match="closed"):
            gateway.validate(session)

    def test_idle_session_expires(self, sim, user):
        gateway = ApiGateway(sim, session_idle_timeout_s=100.0)
        session = gateway.login(user)

        def proc():
            yield sim.timeout(200.0)

        process = sim.spawn(proc())
        sim.run(until=process)
        with pytest.raises(SessionError, match="expired"):
            gateway.validate(session)
        assert gateway.metrics.counter("expirations").value == 1

    def test_activity_keeps_session_alive(self, sim, user):
        gateway = ApiGateway(sim, session_idle_timeout_s=100.0)
        session = gateway.login(user)

        def proc():
            for _ in range(5):
                yield sim.timeout(90.0)
                gateway.validate(session)
            return "alive"

        process = sim.spawn(proc())
        assert sim.run(until=process) == "alive"


class TestAdmission:
    def test_burst_admitted_immediately(self, sim, user):
        gateway = ApiGateway(sim, requests_per_minute=60.0, burst=5.0)
        session = gateway.login(user)

        def proc():
            total_wait = 0.0
            for _ in range(5):
                total_wait += yield from gateway.admit(session)
            return total_wait

        process = sim.spawn(proc())
        assert sim.run(until=process) == 0.0

    def test_sustained_rate_throttled(self, sim, user):
        gateway = ApiGateway(sim, requests_per_minute=60.0, burst=2.0)
        session = gateway.login(user)

        def proc():
            for _ in range(10):
                yield from gateway.admit(session)
            return sim.now

        process = sim.spawn(proc())
        finish = sim.run(until=process)
        # 2 free from burst, 8 paced at 1/s.
        assert finish == pytest.approx(8.0)

    def test_orgs_have_independent_buckets(self, sim):
        gateway = ApiGateway(sim, requests_per_minute=60.0, burst=1.0)
        alice = gateway.login(User("alice", Organization("acme")))
        bob = gateway.login(User("bob", Organization("globex")))

        def proc():
            yield from gateway.admit(alice)
            yield from gateway.admit(bob)
            return sim.now

        process = sim.spawn(proc())
        assert sim.run(until=process) == 0.0

    def test_admission_wait_recorded(self, sim, user):
        gateway = ApiGateway(sim, requests_per_minute=60.0, burst=1.0)
        session = gateway.login(user)

        def proc():
            yield from gateway.admit(session)
            yield from gateway.admit(session)

        sim.run(until=sim.spawn(proc()))
        recorder = gateway.metrics.latency("admission_wait")
        assert recorder.count == 2
        assert recorder.percentile(1.0) == pytest.approx(1.0)

    def test_validation_errors(self, sim):
        with pytest.raises(ValueError):
            ApiGateway(sim, requests_per_minute=0.0)
        with pytest.raises(ValueError):
            ApiGateway(sim, burst=0.0)
        with pytest.raises(ValueError):
            ApiGateway(sim, session_idle_timeout_s=0.0)


class TestShedding:
    def test_shed_above_watermark(self, sim, user):
        from repro.cloud.api import AdmissionShed

        depth = {"value": 10.0}
        gateway = ApiGateway(sim)
        gateway.enable_shedding(lambda: depth["value"], watermark=5.0)
        session = gateway.login(user)

        def proc():
            with pytest.raises(AdmissionShed, match="shed"):
                yield from gateway.admit(session)
            return True

        assert sim.run(until=sim.spawn(proc())) is True
        assert gateway.metrics.counter("shed").value == 1
        # A shed request never reached the token bucket.
        assert gateway.metrics.counter("admitted").value == 0

    def test_admits_below_watermark(self, sim, user):
        depth = {"value": 10.0}
        gateway = ApiGateway(sim)
        gateway.enable_shedding(lambda: depth["value"], watermark=5.0)
        session = gateway.login(user)
        depth["value"] = 4.0
        wait = drive(sim, gateway.admit(session))
        assert wait == 0.0
        assert gateway.metrics.counter("shed").value == 0
        assert gateway.metrics.counter("admitted").value == 1

    def test_watermark_validation(self, sim):
        gateway = ApiGateway(sim)
        with pytest.raises(ValueError, match="watermark"):
            gateway.enable_shedding(lambda: 0.0, watermark=0.0)
        with pytest.raises(ValueError, match="watermark"):
            gateway.enable_shedding(lambda: 0.0, watermark=-1.0)
