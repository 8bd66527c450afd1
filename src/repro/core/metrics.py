"""Response-time statistics and the hook-driven metrics collector.

The paper reports mean, maximum, and standard deviation of read and write
response times (Tables 4a-c).  :class:`ResponseAccumulator` collects them
online with Welford's algorithm so simulations never hold per-operation
lists in memory; a deterministic reservoir sample additionally yields
percentile estimates (an extension the paper's tables lack but its
worst-case discussion clearly wants).

:class:`MetricsCollector` is the simulator's ``on_complete`` subscriber on
the :class:`~repro.core.hooks.HookBus`: it feeds the accumulators and sums
each response's per-layer latency attribution, which becomes the latency
column of ``SimulationResult.layer_breakdown`` (its energy column comes
from the components' meters).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.request import LAYER_NAMES, RequestKind

if TYPE_CHECKING:
    from repro.core.request import Response

_READ = RequestKind.READ
_DELETE = RequestKind.DELETE

#: Reservoir size for percentile estimation: exact percentiles up to this
#: many observations, a uniform sample beyond it.
_RESERVOIR_SIZE = 4096


class ResponseAccumulator:
    """Online mean / max / standard deviation / percentiles of responses."""

    __slots__ = ("count", "_mean", "_m2", "max", "total", "_reservoir", "_rng")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.max = 0.0
        self.total = 0.0
        self._reservoir: list[float] = []
        # Seeded so identical simulations report identical percentiles.
        self._rng = random.Random(0xD15C)

    def add(self, value: float) -> None:
        """Record one response time (seconds)."""
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value > self.max:
            self.max = value
        if len(self._reservoir) < _RESERVOIR_SIZE:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < _RESERVOIR_SIZE:
                self._reservoir[slot] = value

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile (0..1) of the responses seen so far.

        Exact while fewer than the reservoir size have been recorded.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._reservoir:
            return 0.0
        ordered = sorted(self._reservoir)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    @property
    def mean(self) -> float:
        """Mean response time (seconds); 0 when empty."""
        return self._mean if self.count else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation (seconds); 0 when empty."""
        if self.count < 2:
            return 0.0
        return math.sqrt(self._m2 / self.count)

    def reset(self) -> None:
        """Zero the accumulator (warm-start boundary)."""
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.max = 0.0
        self.total = 0.0
        self._reservoir.clear()
        self._rng = random.Random(0xD15C)

    def snapshot(self) -> "ResponseStats":
        """Freeze the current statistics."""
        return ResponseStats(
            count=self.count,
            mean_s=self.mean,
            max_s=self.max,
            std_s=self.std,
            p50_s=self.percentile(0.50),
            p95_s=self.percentile(0.95),
            p99_s=self.percentile(0.99),
        )


class MetricsCollector:
    """Aggregates responses delivered via the hook bus.

    The collector stays quiet during the warm-start prefix
    (``measuring=False``); the simulator's warm-boundary reset flips it on.
    Crash recoveries do not pass through ``on_complete`` and therefore
    never pollute the response statistics, exactly as before.
    """

    __slots__ = ("read", "write", "overall", "n_deletes", "_latency", "measuring")

    def __init__(self, measuring: bool = True) -> None:
        self.read = ResponseAccumulator()
        self.write = ResponseAccumulator()
        self.overall = ResponseAccumulator()
        self.n_deletes = 0
        # Summed latency per layer id, in the run-wide order the
        # layers were first touched.
        self._latency: dict[int, float] = {}
        self.measuring = measuring

    @property
    def layer_latency_s(self) -> dict[str, float]:
        """Summed foreground latency attributed to each layer, seconds."""
        return {
            LAYER_NAMES[layer_id]: total
            for layer_id, total in self._latency.items()
        }

    def observe(self, response: "Response") -> None:
        """The ``on_complete`` subscriber: record one finished response.

        Reads the response's layer-id attribution arrays directly (the
        collector and the Response are two halves of the same hot path),
        so no name-keyed dict is materialised per operation.
        """
        if not self.measuring:
            return
        kind = response.request.kind
        if kind is _DELETE:
            self.n_deletes += 1
            return
        value = response.completed_at - response.issued_at
        if kind is _READ:
            self.read.add(value)
        else:
            self.write.add(value)
        self.overall.add(value)
        latency = self._latency
        lat = response._lat
        for layer_id in response._touched:
            if layer_id in latency:
                latency[layer_id] += lat[layer_id]
            else:
                latency[layer_id] = lat[layer_id]

    def reset(self) -> None:
        """Warm-start boundary: discard the prefix and start measuring."""
        self.read.reset()
        self.write.reset()
        self.overall.reset()
        self.n_deletes = 0
        self._latency = {}
        self.measuring = True


@dataclass(frozen=True, slots=True)
class ReliabilityStats:
    """Frozen fault-and-recovery counters for one simulation run.

    Present on a :class:`~repro.core.results.SimulationResult` only when the
    configuration carries a :class:`~repro.faults.plan.FaultPlan`; all
    fields are zero when the plan injected nothing.
    """

    read_retries: int = 0
    write_retries: int = 0
    #: operations that failed even after exhausting their retry budget
    unrecovered_errors: int = 0
    #: host-side backoff delay added to responses, seconds
    retry_delay_s: float = 0.0
    #: segment erases that failed permanently (bad-block events)
    erase_failures: int = 0
    #: bad segments transparently remapped onto spares
    remapped_segments: int = 0
    #: bad segments retired outright (spares exhausted; capacity shrank)
    retired_segments: int = 0
    #: flash-disk sectors retired by failed background erases
    retired_sectors: int = 0
    #: spare segments still unused at end of run
    spares_remaining: int = 0
    power_losses: int = 0
    #: device operations that were in flight when power died
    torn_writes: int = 0
    #: volatile DRAM-cache blocks dropped across all crashes
    dropped_cache_blocks: int = 0
    #: write-back dirty blocks lost with the DRAM cache (data loss)
    lost_dirty_blocks: int = 0
    #: battery-backed SRAM blocks replayed to the device on recovery
    replayed_blocks: int = 0
    #: total crash-recovery time (scan + replay), seconds
    recovery_time_s: float = 0.0
    #: energy spent on recovery scans and replays, Joules
    recovery_energy_j: float = 0.0

    @property
    def total_retries(self) -> int:
        """Read and write retries combined."""
        return self.read_retries + self.write_retries

    def to_dict(self) -> dict[str, float | int]:
        """A JSON-serialisable record of the reliability counters."""
        return {
            "read_retries": self.read_retries,
            "write_retries": self.write_retries,
            "unrecovered_errors": self.unrecovered_errors,
            "retry_delay_s": self.retry_delay_s,
            "erase_failures": self.erase_failures,
            "remapped_segments": self.remapped_segments,
            "retired_segments": self.retired_segments,
            "retired_sectors": self.retired_sectors,
            "spares_remaining": self.spares_remaining,
            "power_losses": self.power_losses,
            "torn_writes": self.torn_writes,
            "dropped_cache_blocks": self.dropped_cache_blocks,
            "lost_dirty_blocks": self.lost_dirty_blocks,
            "replayed_blocks": self.replayed_blocks,
            "recovery_time_s": self.recovery_time_s,
            "recovery_energy_j": self.recovery_energy_j,
        }


@dataclass(frozen=True, slots=True)
class ResponseStats:
    """Frozen response-time statistics, reported in the paper's units."""

    count: int
    mean_s: float
    max_s: float
    std_s: float
    p50_s: float = 0.0
    p95_s: float = 0.0
    p99_s: float = 0.0

    @property
    def mean_ms(self) -> float:
        """Mean response in milliseconds (the paper's Tables 4a-c unit)."""
        return self.mean_s * 1e3

    @property
    def max_ms(self) -> float:
        """Maximum response in milliseconds."""
        return self.max_s * 1e3

    @property
    def std_ms(self) -> float:
        """Response standard deviation in milliseconds."""
        return self.std_s * 1e3

    @property
    def p95_ms(self) -> float:
        """95th-percentile response in milliseconds."""
        return self.p95_s * 1e3

    @property
    def p99_ms(self) -> float:
        """99th-percentile response in milliseconds."""
        return self.p99_s * 1e3

    @staticmethod
    def empty() -> "ResponseStats":
        """Statistics over zero observations."""
        return ResponseStats(count=0, mean_s=0.0, max_s=0.0, std_s=0.0)
