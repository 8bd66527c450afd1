"""Structured observability: event tracing and metrics export.

See ``DESIGN.md`` section 4e for the event schema and sampling model.

* :class:`~repro.obs.events.EventTracer` — typed span events in a bounded
  ring buffer; Chrome ``trace_event`` (Perfetto) export.
* :class:`~repro.obs.metrics.MetricsRegistry` — named counters, gauges,
  and histograms sampled on an op-interval; JSON and Prometheus export.
* :class:`~repro.obs.session.ObservabilitySession` — wires both onto a
  simulation via the hierarchy's :class:`~repro.core.hooks.HookBus`,
  checks each run's layer attribution, and renders it as tables.
* :mod:`~repro.obs.runtime` — the process-global install point the
  parallel engine uses.

``repro run <ids> --observe DIR`` is the command-line front door: it
observes every simulation of each work unit and writes the unit's
Chrome trace, metrics JSON and layer tables into ``DIR``
(:func:`repro.engine.scheduler.run_unit_observed`).

Observability is off by default and costs nothing when off: no hook-bus
subscribers, no device sink, one global read per ``Simulator.run``.
"""

from repro.obs.events import EventTracer, read_chrome_layer_totals
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.session import ObservabilitySession

__all__ = [
    "Counter",
    "EventTracer",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObservabilitySession",
    "read_chrome_layer_totals",
]
