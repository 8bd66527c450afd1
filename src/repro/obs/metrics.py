"""Named instruments (counters, gauges, histograms) and their exporters.

A :class:`MetricsRegistry` holds the instruments an
:class:`~repro.obs.session.ObservabilitySession` maintains during a run:
monotonic counters (ops, reads, crashes), point-in-time gauges (SRAM
occupancy, cleaning backlog, device queue time), and fixed-bucket
histograms (response times, flash segment wear).  On a configurable
op-interval the registry snapshots every instrument into a bounded
time-series keyed by simulated time, so a run becomes a sequence of
``(t_s, {metric: value})`` rows rather than a single final number.

Exports: :meth:`MetricsRegistry.to_json_dict` (instruments + samples as
plain JSON) and :meth:`MetricsRegistry.to_prometheus` (the Prometheus
text exposition format, one ``# TYPE`` block per instrument, histogram
buckets as cumulative ``_bucket{le=...}`` rows).
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_FIX = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Coerce ``name`` into a legal Prometheus metric name."""
    if _NAME_OK.match(name):
        return name
    fixed = _NAME_FIX.sub("_", name)
    if not fixed or not _NAME_OK.match(fixed[0]):
        fixed = "_" + fixed
    return fixed


class Counter:
    """A monotonic counter. ``inc`` is the only mutator."""

    __slots__ = ("name", "help", "value")
    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0

    def sample(self) -> float:
        return self.value


class Gauge:
    """A point-in-time value; may also be bound to a callable.

    A bound gauge (``Gauge(..., fn=...)``) reads its source lazily at
    sample time, so device/cache state is lifted into the time-series
    without the hot path pushing updates.
    """

    __slots__ = ("name", "help", "value", "fn")
    kind = "gauge"

    def __init__(self, name: str, help: str = "", fn=None) -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self.fn = fn

    def set(self, value: float) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = 0.0

    def sample(self) -> float:
        if self.fn is not None:
            self.value = float(self.fn())
        return self.value


#: Quantiles every histogram exports (JSON ``quantiles`` block and the
#: Prometheus summary-form rows); what fleet aggregation and ``/metrics``
#: consumers read.
EXPORT_QUANTILES = (0.50, 0.90, 0.99)
#: Namespace prefix of every exported Prometheus metric name.
PROMETHEUS_PREFIX = "repro_"


class Histogram:
    """Fixed upper-bound buckets plus sum/count (Prometheus semantics).

    ``bounds`` are the finite bucket upper bounds; an implicit ``+Inf``
    bucket catches the tail.  ``counts[i]`` is *per-bucket* internally
    and cumulated only at export, matching how Prometheus expects
    ``_bucket{le=...}`` rows to be monotone.
    """

    __slots__ = ("name", "help", "bounds", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, name: str, bounds: tuple[float, ...], help: str = "") -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name}: bounds must be sorted and non-empty")
        self.name = name
        self.help = help
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        i = 0
        bounds = self.bounds
        n = len(bounds)
        while i < n and value > bounds[i]:
            i += 1
        self.counts[i] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float | None:
        """Estimated ``q``-quantile (0..1) from the bucket counts.

        Linear interpolation within the containing bucket (the same
        model as PromQL's ``histogram_quantile``): the first bucket
        interpolates from 0, and any quantile landing in the +Inf tail
        reports the highest finite bound.  ``None`` when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        rank = q * self.count
        cumulative = 0
        for i, bound in enumerate(self.bounds):
            previous = cumulative
            cumulative += self.counts[i]
            if cumulative >= rank:
                lower = self.bounds[i - 1] if i > 0 else 0.0
                if self.counts[i] == 0:
                    return bound
                fraction = (rank - previous) / self.counts[i]
                return lower + (bound - lower) * min(1.0, fraction)
        return self.bounds[-1]  # tail (+Inf) bucket: clamp to last bound

    def quantiles(
        self, qs: tuple[float, ...] | None = None
    ) -> dict[str, float | None]:
        """The standard export quantiles, keyed ``"p50"``-style."""
        qs = EXPORT_QUANTILES if qs is None else qs
        return {f"p{round(q * 100):d}": self.quantile(q) for q in qs}

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def sample(self) -> dict[str, Any]:
        return {"count": self.count, "sum": self.sum, "counts": list(self.counts)}


def exponential_bounds(start: float, factor: float, n: int) -> tuple[float, ...]:
    """``n`` geometric bucket bounds starting at ``start``."""
    if start <= 0 or factor <= 1 or n < 1:
        raise ValueError("need start > 0, factor > 1, n >= 1")
    bounds = []
    value = start
    for _ in range(n):
        bounds.append(value)
        value *= factor
    return tuple(bounds)


#: Default time-series length bound; one row per sample interval.
DEFAULT_MAX_SAMPLES = 65_536


class MetricsRegistry:
    """Named instruments plus a bounded time-series of their samples.

    ``sample_interval_ops`` is the op-spacing of time-series rows — the
    session calls :meth:`maybe_sample` once per completed request and the
    registry decides whether this op closes an interval.  The series is a
    ring like the tracer's: when full, the oldest row is dropped and
    counted.
    """

    def __init__(self, sample_interval_ops: int = 64,
                 max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        if sample_interval_ops < 1:
            raise ValueError("sample_interval_ops must be >= 1")
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.sample_interval_ops = sample_interval_ops
        self.max_samples = max_samples
        self.samples: list[dict[str, Any]] = []
        self.samples_dropped = 0
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._ops_since_sample = 0

    # -- instrument management ---------------------------------------------------

    def _register(self, instrument):
        name = instrument.name
        if not _NAME_OK.match(name):
            raise ValueError(f"bad metric name {name!r}; try "
                             f"{sanitize_metric_name(name)!r}")
        existing = self._instruments.get(name)
        if existing is not None:
            if type(existing) is not type(instrument):
                raise ValueError(f"metric {name!r} re-registered as a different kind")
            return existing
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter(name, help))

    def gauge(self, name: str, help: str = "", fn=None) -> Gauge:
        return self._register(Gauge(name, help, fn))

    def histogram(self, name: str, bounds: tuple[float, ...],
                  help: str = "") -> Histogram:
        return self._register(Histogram(name, bounds, help))

    def get(self, name: str):
        return self._instruments[name]

    def names(self) -> list[str]:
        return list(self._instruments)

    def reset(self) -> None:
        """Zero every instrument and clear the series (run boundary)."""
        for instrument in self._instruments.values():
            instrument.reset()
        self.samples = []
        self.samples_dropped = 0
        self._ops_since_sample = 0

    # -- sampling ----------------------------------------------------------------

    def maybe_sample(self, t_s: float) -> bool:
        """Count one op; snapshot the instruments if the interval closed."""
        self._ops_since_sample += 1
        if self._ops_since_sample < self.sample_interval_ops:
            return False
        self._ops_since_sample = 0
        self.force_sample(t_s)
        return True

    def force_sample(self, t_s: float) -> None:
        """Snapshot every instrument into the time-series at ``t_s``."""
        row: dict[str, Any] = {"t_s": t_s}
        for name, instrument in self._instruments.items():
            row[name] = instrument.sample()
        if len(self.samples) >= self.max_samples:
            self.samples.pop(0)
            self.samples_dropped += 1
        self.samples.append(row)

    # -- export ------------------------------------------------------------------

    def to_json_dict(self) -> dict[str, Any]:
        instruments = {}
        for name, inst in self._instruments.items():
            entry: dict[str, Any] = {"kind": inst.kind, "help": inst.help}
            if isinstance(inst, Histogram):
                entry["bounds"] = list(inst.bounds)
                entry.update(inst.sample())
                entry["quantiles"] = inst.quantiles()
            else:
                entry["value"] = inst.sample()
            instruments[name] = entry
        return {
            "sample_interval_ops": self.sample_interval_ops,
            "samples_dropped": self.samples_dropped,
            "instruments": instruments,
            "series": self.samples,
        }

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json_dict(), indent=1, sort_keys=True))
        return path

    def to_prometheus(self) -> str:
        """The final instrument values in Prometheus text exposition format,
        each name under ``PROMETHEUS_PREFIX``."""
        lines: list[str] = []
        for name, inst in sorted(self._instruments.items()):
            full = sanitize_metric_name(PROMETHEUS_PREFIX + name)
            if inst.help:
                lines.append(f"# HELP {full} {inst.help}")
            lines.append(f"# TYPE {full} {inst.kind}")
            if isinstance(inst, Histogram):
                cumulative = 0
                for bound, count in zip(inst.bounds, inst.counts):
                    cumulative += count
                    lines.append(f'{full}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
                lines.append(f'{full}_bucket{{le="+Inf"}} {inst.count}')
                lines.append(f"{full}_sum {_fmt(inst.sum)}")
                lines.append(f"{full}_count {inst.count}")
                # Pre-computed percentiles in summary form, next to the
                # buckets, so scrapers that never run histogram_quantile
                # (dashboards, the fleet aggregator) still see p50/p90/p99.
                if inst.count:
                    summary = sanitize_metric_name(f"{full}_quantiles")
                    lines.append(f"# TYPE {summary} summary")
                    for q in EXPORT_QUANTILES:
                        value = inst.quantile(q)
                        lines.append(
                            f'{summary}{{quantile="{_fmt(q)}"}} {_fmt(value)}'
                        )
                    lines.append(f"{summary}_sum {_fmt(inst.sum)}")
                    lines.append(f"{summary}_count {inst.count}")
            else:
                lines.append(f"{full} {_fmt(inst.sample())}")
        return "\n".join(lines) + "\n"

    def write_prometheus(self, path: str | Path) -> Path:
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_prometheus())
        return path


def _fmt(value: float) -> str:
    """Prometheus float formatting: integral values without the dot."""
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))
