"""The self-service API gateway: sessions and admission throttling.

Production directors front the control plane with an API layer that (a)
tracks tenant sessions (each holds management-server memory) and (b)
throttles request admission so a single tenant's script can't saturate
the task pipeline. Throttling trades tenant-visible queueing for
control-plane protection — a design lever the paper's conclusions point
toward.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.cloud.tenancy import Organization, User
from repro.faults.errors import TransientError
from repro.sim.kernel import Simulator
from repro.sim.resources import TokenBucket
from repro.telemetry.metrics import NULL_TELEMETRY

#: A session idle for longer than this expires at its next use.
SESSION_IDLE_TIMEOUT_S = 1800.0


class SessionError(Exception):
    """Invalid or expired session usage."""


class AdmissionShed(TransientError):
    """Request rejected at the door: the control plane is overloaded.

    Transient by design — the tenant (or a retry layer with backoff) may
    try again once the task queue drains. Shedding at admission costs one
    cheap rejection instead of a queued task that would blow its deadline.
    """


@dataclasses.dataclass
class Session:
    """One authenticated tenant session."""

    session_id: int
    user: User
    opened_at: float
    last_used_at: float
    closed: bool = False


class ApiGateway:
    """Session registry + per-org token-bucket admission.

    ``admit`` is the process-style entry point request handlers call
    before touching the director: it validates the session and blocks
    until the org's bucket grants a token.
    """

    def __init__(
        self,
        sim: Simulator,
        requests_per_minute: float = 60.0,
        burst: float = 10.0,
        telemetry=None,
    ) -> None:
        if requests_per_minute <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.sim = sim
        self.rate_per_s = requests_per_minute / 60.0
        self.burst = burst
        # Off until enable_shedding sets both.
        self.shed_watermark: float | None = None
        self.queue_depth_probe: typing.Callable[[], float] | None = None
        self._sessions: dict[int, Session] = {}
        self._buckets: dict[str, TokenBucket] = {}
        self._next_id = 0
        telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._t_admitted = telemetry.counter("gateway_admitted_total")
        self._t_shed = telemetry.counter("gateway_shed_total")
        self._t_wait = telemetry.histogram("gateway_admission_wait_s")
        self._deploy_seq = 0

    def enable_shedding(
        self, queue_depth_probe: typing.Callable[[], float], watermark: float
    ) -> None:
        """Shed admissions while ``queue_depth_probe()`` >= ``watermark``.

        The probe is typically ``lambda: server.tasks.queue_depth`` — the
        datacenter-wide dispatch backlog.
        """
        if watermark <= 0:
            raise ValueError("watermark must be positive")
        self.queue_depth_probe = queue_depth_probe
        self.shed_watermark = watermark

    # -- sessions --------------------------------------------------------------

    def login(self, user: User) -> Session:
        self._next_id += 1
        session = Session(
            session_id=self._next_id,
            user=user,
            opened_at=self.sim.now,
            last_used_at=self.sim.now,
        )
        self._sessions[session.session_id] = session
        return session

    def validate(self, session: Session) -> None:
        """Raise unless the session is live; expire idle sessions."""
        if session.closed or session.session_id not in self._sessions:
            raise SessionError(f"session {session.session_id} is closed")
        idle = self.sim.now - session.last_used_at
        if idle > SESSION_IDLE_TIMEOUT_S:
            session.closed = True
            del self._sessions[session.session_id]
            raise SessionError(
                f"session {session.session_id} expired after {idle:.0f}s idle"
            )
        session.last_used_at = self.sim.now

    # -- admission ----------------------------------------------------------------

    def _bucket(self, org: Organization) -> TokenBucket:
        if org.name not in self._buckets:
            self._buckets[org.name] = TokenBucket(
                self.sim, rate=self.rate_per_s, burst=self.burst, name=f"api:{org.name}"
            )
        return self._buckets[org.name]

    def admit(self, session: Session) -> typing.Generator[typing.Any, typing.Any, float]:
        """Process-style: validate + throttle; returns the admission wait.

        With shedding enabled, an overloaded control plane rejects the
        request up front (:class:`AdmissionShed`) instead of queueing it.
        """
        self.validate(session)
        if self.queue_depth_probe is not None:
            depth = self.queue_depth_probe()
            if depth >= self.shed_watermark:
                self._t_shed.add()
                raise AdmissionShed(
                    f"task backlog {depth:.0f} >= watermark "
                    f"{self.shed_watermark:.0f}; request shed"
                )
        start = self.sim.now
        yield from self._bucket(session.user.org).take()
        wait = self.sim.now - start
        self._t_admitted.add()
        self._t_wait.observe(wait)
        return wait

    def submit_deploy(
        self, session: Session, director, request
    ) -> typing.Generator[typing.Any, typing.Any, typing.Any]:
        """Process-style: admit, then hand the deploy to the director.

        The gateway→director hop: with a mediated bus the request rides
        the director's deploy topic (at-least-once, keyed per request) and
        this waits on the reply; with direct calls it is a plain director
        call. Returns the settled vApp either way.
        """
        yield from self.admit(session)
        bus = director.server.bus
        if not bus.mediated:
            vapp = yield from director.deploy(request)
            return vapp
        self._deploy_seq += 1
        key = f"deploy:{request.vapp_name}:{self._deploy_seq}"
        reply = self.sim.event(name=f"bus-reply:{key}")
        yield from bus.publish(
            director.deploy_topic_name, request, key=key, reply=reply
        )
        vapp = yield reply
        return vapp
