"""Fault taxonomy: the exception contract between injection and resilience.

Resilience machinery (retries, circuit breakers) must distinguish
*transient* failures — the kind a retry can plausibly mask — from
programming errors and permanent conditions. Every modeled fault raised
by an injection hook derives from :class:`TransientError`; retry policies
default to retrying exactly that set.
"""

from __future__ import annotations

from repro.sim.kernel import Interrupt


class TransientError(Exception):
    """A modeled, possibly-transient infrastructure failure.

    Host-agent faults, injected copy failures, and shard outages all
    derive from this; :class:`~repro.controlplane.resilience.RetryPolicy`
    retries these by default and nothing else.
    """


class InjectedFault(TransientError):
    """Generic fault raised by a :class:`~repro.faults.hooks.FaultHook`."""


class ShardUnavailable(TransientError):
    """A management-server shard is down; submissions to it fail."""


class ServerCrashed(TransientError):
    """The management server itself crashed.

    Raised into in-flight task processes when a
    :class:`~repro.faults.schedule.ServerCrash` window arms, and by
    :meth:`~repro.controlplane.server.ManagementServer.submit` while the
    server is down. Transient: the server restarts after its downtime, so
    callers (the cloud director, storm workers) may retry — the recovery
    manager guarantees a retried submission never duplicates work that
    the journal already accounts for.
    """


class MessageLost(TransientError):
    """The message bus gave up on a message.

    Raised into the publisher's reply when a message exhausts its
    redelivery budget (repeatedly dropped in transit); a full queue
    blocks its publishers instead. Transient: the send itself may be
    retried — consumers deduplicate by idempotency key, so a retried
    send never re-executes work a late copy already performed.
    """


def crash_cause(error: BaseException) -> ServerCrashed | None:
    """The :class:`ServerCrashed` behind ``error``, if it is one.

    Crash interrupts arrive as :class:`~repro.sim.kernel.Interrupt` with a
    ``ServerCrashed`` cause; resources unwound mid-crash may re-raise the
    cause bare. Anything else is not a crash.
    """
    if isinstance(error, Interrupt) and isinstance(error.cause, ServerCrashed):
        return error.cause
    if isinstance(error, ServerCrashed):
        return error
    return None
