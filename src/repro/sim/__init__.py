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
- Resources: :class:`~repro.sim.resources.Resource` and
  :class:`~repro.sim.resources.PriorityResource`.
- :class:`~repro.sim.random.RandomStreams` — reproducible named substreams.
- :mod:`~repro.sim.stats` — gauges, latency recorders, log histograms, time series.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.sim.events": ("AllOf", "AnyOf", "Call", "Event", "EventCancelled", "Timeout"),
        "repro.sim.kernel": ("Interrupt", "Process", "Simulator"),
        "repro.sim.random": ("RandomStreams",),
        "repro.sim.resources": ("PriorityResource", "Resource"),
        "repro.sim.stats": (
            "Gauge",
            "LatencyRecorder",
            "LogHistogram",
            "TimeSeries",
        ),
    },
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Call",
    "Event",
    "EventCancelled",
    "Gauge",
    "Interrupt",
    "LatencyRecorder",
    "LogHistogram",
    "PriorityResource",
    "Process",
    "RandomStreams",
    "Resource",
    "Simulator",
    "TimeSeries",
    "Timeout",
]
