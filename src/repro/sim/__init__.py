"""Deterministic discrete-event simulation kernel.

This subpackage is a self-contained DES engine in the style of SimPy but
purpose-built for this reproduction: deterministic event ordering, named
random streams, interruptible processes, and first-class metrics.

The public surface:

- :class:`~repro.sim.kernel.Simulator` — the event loop.
- :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.AllOf`, :class:`~repro.sim.events.AnyOf`, and
  :class:`~repro.sim.events.Call` for :meth:`Simulator.call_later`.
- :class:`~repro.sim.kernel.Process` and
  :class:`~repro.sim.kernel.Interrupt` for failure injection.
- Resources: :class:`~repro.sim.resources.Resource`,
  :class:`~repro.sim.resources.PriorityResource`,
  :class:`~repro.sim.resources.Store`.
- :class:`~repro.sim.random.RandomStreams` — reproducible named substreams.
- :mod:`~repro.sim.stats` — counters, gauges, latency recorders, time series.
"""

from repro.sim.events import AllOf, AnyOf, Call, Event, EventCancelled, Timeout
from repro.sim.kernel import Interrupt, Process, Simulator
from repro.sim.random import RandomStreams
from repro.sim.resources import PriorityResource, Resource, Store
from repro.sim.stats import (
    Counter,
    Gauge,
    Histogram,
    LatencyRecorder,
    LogHistogram,
    MetricsRegistry,
    TimeSeries,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Call",
    "Counter",
    "Event",
    "EventCancelled",
    "Gauge",
    "Histogram",
    "Interrupt",
    "LatencyRecorder",
    "LogHistogram",
    "MetricsRegistry",
    "PriorityResource",
    "Process",
    "RandomStreams",
    "Resource",
    "Simulator",
    "Store",
    "TimeSeries",
    "Timeout",
]
