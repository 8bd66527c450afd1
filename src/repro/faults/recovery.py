"""Crash-recovery accounting: what a power-loss event costs.

On power loss the hierarchy tears whatever the device had in flight, drops
the volatile DRAM cache (write-back dirty blocks are lost — the risk the
paper's section 4.2 flags for write-back caches), and then recovers:

* a **recovery scan** re-reads device metadata (FTL maps, segment summary
  blocks) at a cost of a fixed base plus a per-megabyte term;
* the battery-backed SRAM buffer **replays** its dirty blocks to the device
  — the paper's section 5.5 assumption ("writes to SRAM can be recovered
  after a crash"), actually modeled.

:class:`ReliabilityMeter` is the mutable accumulator the hierarchy charges
while simulating; :meth:`ReliabilityMeter.snapshot` freezes it into the
:class:`~repro.core.metrics.ReliabilityStats` carried by results.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.metrics import ReliabilityStats
from repro.devices.base import StorageDevice
from repro.units import MB

#: Fixed cost of the post-crash recovery scan, in seconds.
RECOVERY_BASE_S = 0.05
#: Additional scan seconds per megabyte of device capacity (reading FTL and
#: cleaner metadata back into memory).
RECOVERY_SCAN_S_PER_MB = 0.002


class ReliabilityMeter:
    """Mutable fault/recovery counters for one simulation run."""

    def __init__(self) -> None:
        self.read_retries = 0
        self.write_retries = 0
        self.unrecovered_errors = 0
        self.retry_delay_s = 0.0
        self.power_losses = 0
        self.torn_writes = 0
        self.dropped_cache_blocks = 0
        self.lost_dirty_blocks = 0
        self.replayed_blocks = 0
        self.recovery_time_s = 0.0
        self.recovery_energy_j = 0.0

    def reset(self) -> None:
        """Zero every counter (warm-start boundary)."""
        self.__init__()

    def live_counters(self) -> dict[str, "Callable[[], float]"]:
        """Named zero-argument readers over the mutable counters.

        Observability gauges bind to these so a metrics sample sees the
        meter's current value without snapshotting the whole device.
        """
        return {
            name: (lambda n=name: getattr(self, n))
            for name in (
                "read_retries", "write_retries", "unrecovered_errors",
                "retry_delay_s", "power_losses", "torn_writes",
                "replayed_blocks", "recovery_time_s",
            )
        }

    def snapshot(self, device: StorageDevice) -> ReliabilityStats:
        """Freeze the counters, folding in the device's own bad-block
        bookkeeping (kept on the device because remapping is its job)."""
        stats = device.stats()
        return ReliabilityStats(
            read_retries=self.read_retries,
            write_retries=self.write_retries,
            unrecovered_errors=self.unrecovered_errors,
            retry_delay_s=self.retry_delay_s,
            erase_failures=int(stats.get("erase_failures", 0)),
            remapped_segments=int(stats.get("remapped_segments", 0)),
            retired_segments=int(stats.get("retired_segments", 0)),
            retired_sectors=int(stats.get("retired_sectors", 0)),
            spares_remaining=int(stats.get("spares_remaining", 0)),
            power_losses=self.power_losses,
            torn_writes=self.torn_writes,
            dropped_cache_blocks=self.dropped_cache_blocks,
            lost_dirty_blocks=self.lost_dirty_blocks,
            replayed_blocks=self.replayed_blocks,
            recovery_time_s=self.recovery_time_s,
            recovery_energy_j=self.recovery_energy_j,
        )


def recovery_scan_s(device: StorageDevice) -> float:
    """Time to rebuild device metadata after a crash: a fixed base plus a
    per-megabyte scan over the medium."""
    capacity = getattr(device, "capacity_bytes", 0)
    return RECOVERY_BASE_S + RECOVERY_SCAN_S_PER_MB * (capacity / MB)
