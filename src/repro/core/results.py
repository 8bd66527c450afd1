"""Simulation result records.

A :class:`SimulationResult` carries everything a Table 4 row needs (energy,
read/write response statistics) plus the supporting detail the other
experiments use: per-component energy breakdowns, cache hit rates, cleaning
and wear counters, and spin statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.config import SimulationConfig
from repro.core.metrics import ReliabilityStats, ResponseStats
from repro.flash.wear import WearStats


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one trace-driven simulation run.

    All statistics cover only the measured part of the trace (after the
    warm-start prefix), matching the paper's methodology.
    """

    trace_name: str
    device_name: str
    config: SimulationConfig
    #: simulated seconds covered by the measurement window
    duration_s: float
    #: total energy over the measurement window, Joules
    energy_j: float
    #: per-component, per-bucket energy: {"device": {"idle": ..}, "dram": ..}
    energy_breakdown: dict[str, dict[str, float]]
    read_response: ResponseStats
    write_response: ResponseStats
    overall_response: ResponseStats
    n_reads: int
    n_writes: int
    n_deletes: int
    #: device counters (spin-ups, cleanings, stalls, ...) at end of run
    device_stats: dict[str, float]
    #: DRAM hit rate over the measurement window (None when no cache)
    dram_hit_rate: float | None = None
    #: flash wear summary (flash card only)
    wear: WearStats | None = None
    #: fault-injection outcome (None when no fault plan was configured)
    reliability: ReliabilityStats | None = None
    #: per-layer cost over the measurement window:
    #: {"dram": {"latency_s": .., "energy_j": ..}, "device": .., ...}.
    #: Latencies sum to the total foreground response time, energies to
    #: ``energy_j`` (flash cleaning split out as its own pseudo-layer).
    layer_breakdown: dict[str, dict[str, float]] = field(default_factory=dict)
    #: extra per-experiment annotations
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def mean_overall_ms(self) -> float:
        """Mean response over reads and writes together (Figure 4)."""
        return self.overall_response.mean_ms

    def table4_row(self) -> dict[str, float | str]:
        """One row in the shape of the paper's Tables 4(a)-(c)."""
        return {
            "device": self.device_name,
            "energy_j": self.energy_j,
            "read_mean_ms": self.read_response.mean_ms,
            "read_max_ms": self.read_response.max_ms,
            "read_std_ms": self.read_response.std_ms,
            "write_mean_ms": self.write_response.mean_ms,
            "write_max_ms": self.write_response.max_ms,
            "write_std_ms": self.write_response.std_ms,
        }

    def energy_of(self, component: str) -> float:
        """Total Joules charged by one component (e.g. ``"device"``)."""
        return sum(self.energy_breakdown.get(component, {}).values())

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serialisable record of this result (for downstream
        analysis pipelines and regression baselines)."""

        def stats(response: ResponseStats) -> dict[str, float]:
            return {
                "count": response.count,
                "mean_ms": response.mean_ms,
                "max_ms": response.max_ms,
                "std_ms": response.std_ms,
                "p50_ms": response.p50_s * 1e3,
                "p95_ms": response.p95_ms,
                "p99_ms": response.p99_ms,
            }

        record: dict[str, Any] = {
            "trace": self.trace_name,
            "device": self.device_name,
            "config": self.config.describe(),
            "duration_s": self.duration_s,
            "energy_j": self.energy_j,
            "energy_breakdown": self.energy_breakdown,
            "read": stats(self.read_response),
            "write": stats(self.write_response),
            "overall": stats(self.overall_response),
            "n_deletes": self.n_deletes,
            "device_stats": self.device_stats,
            "dram_hit_rate": self.dram_hit_rate,
            "layer_breakdown": self.layer_breakdown,
        }
        if self.reliability is not None:
            record["reliability"] = self.reliability.to_dict()
        if self.wear is not None:
            record["wear"] = {
                "total_erasures": self.wear.total_erasures,
                "max_erasures": self.wear.max_erasures,
                "mean_erasures": self.wear.mean_erasures,
                "segments": self.wear.segments,
            }
        return record

    def save_json(self, path) -> None:
        """Write :meth:`to_dict` to ``path`` as indented JSON."""
        import json
        from pathlib import Path

        Path(path).write_text(json.dumps(self.to_dict(), indent=2, default=str))
