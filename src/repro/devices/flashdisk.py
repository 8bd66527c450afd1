"""Flash disk emulator model (SunDisk SDP10 / SDP5 / SDP5A).

The SDP series replaces the hard disk with flash behind a conventional disk
interface: 512-byte sectors, single-sector erase granularity, and no
segment cleaning — which is why, unlike the flash card, the flash disk "is
unaffected by utilization because it does not copy data within the flash"
(paper section 5.2).

Two write modes:

* **coupled** (SDP10, SDP5): erasure happens inside the write; the host
  sees one slow write at ``write_bandwidth_bps`` (50-75 KB/s class).
* **asynchronous** (SDP5A, section 5.3): stale sectors are erased in the
  background at ``erase_bandwidth_bps`` (150 KB/s) during idle time, and
  writes that land on pre-erased sectors run at
  ``pre_erased_write_bandwidth_bps`` (400 KB/s).  When the pre-erased pool
  runs dry the device falls back to coupled writes.

The asynchronous mode needs sector indirection, provided by
:class:`repro.flash.ftl.SectorMap`.

The device keeps its sector map, erase progress and counters as plain
attributes (``sector_map``, ``pre_erased_sector_writes``, ...); its read
and write durations are methods over the spec, and the per-sector erase
time is fixed at construction.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.devices.base import AccessKind, StorageDevice
from repro.devices.specs import FlashDiskSpec
from repro.errors import ConfigurationError
from repro.flash.ftl import SectorMap
from repro.units import transfer_time


class FlashDisk(StorageDevice):
    """A flash memory card with a disk-block interface.

    Args:
        spec: device parameters.
        capacity_bytes: medium size (defaults to the spec's capacity).
        block_bytes: the file-system block size the simulator addresses the
            device with; must be a multiple of the 512-byte sector.
        injector: optional fault injector; background erases may then fail
            permanently, retiring sectors (the device tracks no per-sector
            wear, so failures arrive at the plan's flat base rate).
    """

    def __init__(
        self,
        spec: FlashDiskSpec,
        capacity_bytes: int | None = None,
        block_bytes: int = 512,
        injector=None,
    ) -> None:
        super().__init__(spec.name)
        self.spec = spec
        self.capacity_bytes = capacity_bytes or spec.capacity_bytes
        if block_bytes % spec.sector_bytes:
            raise ConfigurationError(
                f"block size {block_bytes} is not a multiple of the "
                f"{spec.sector_bytes}-byte sector"
            )
        self.block_bytes = block_bytes
        self.sectors_per_block = block_bytes // spec.sector_bytes
        #: decoupled erasure, the SDP5A mode; the spec decides it
        self.async_erase = spec.supports_async_erase
        n_sectors = self.capacity_bytes // spec.sector_bytes
        self.sector_map = SectorMap(n_sectors)
        self._injector = injector
        # Fixed by the spec for the device's lifetime; precomputed because
        # advance() consults it on every call.
        self._sector_erase_s = transfer_time(
            spec.sector_bytes, spec.erase_bandwidth_bps
        )
        self.pre_erased_sector_writes = 0
        self.coupled_sector_writes = 0
        self.background_erasures = 0
        #: seconds of erase work already paid toward the next dirty sector
        self._erase_progress_s = 0.0

    # -- setup -------------------------------------------------------------------

    def preload(self, n_blocks: int) -> None:
        """Mark blocks ``0..n_blocks-1`` as holding data at time zero."""
        self.sector_map.preload(n_blocks * self.sectors_per_block)

    # -- idle-time behaviour -------------------------------------------------------

    def advance(self, until: float) -> None:
        if until <= self.clock:
            return
        if not self.async_erase:
            self.energy.charge("idle", self.spec.idle_power_w, until - self.clock)
            self.clock = until
            return
        # Background erasure: drain the dirty queue at the erase bandwidth,
        # suspending (trivially, since this only runs between operations)
        # during I/O.
        budget = until - self.clock
        per_sector = self._sector_erase_s
        sector_map = self.sector_map
        charge = self.energy.charge
        spec = self.spec
        cursor = self.clock  # tracks erase-completion times for the obs sink
        while budget > 0 and sector_map.dirty_sectors > 0:
            needed = per_sector - self._erase_progress_s
            if budget < needed:
                self._erase_progress_s += budget
                charge("erase", spec.active_power_w, budget)
                budget = 0.0
                break
            charge("erase", spec.active_power_w, needed)
            budget -= needed
            self._erase_progress_s = 0.0
            if self.obs_sink is not None:
                self.obs_sink("erase", cursor, needed, self.name)
            cursor += needed
            # The SDP spec sheet quotes no endurance figure; per-sector wear
            # is untracked, so failures arrive at the plan's flat base rate.
            if self._injector is not None and self._injector.erase_failure(0, 1):
                sector_map.retire_dirty_one()
            else:
                sector_map.erase_one()
            self.background_erasures += 1
        if budget > 0:
            charge("idle", spec.idle_power_w, budget)
        self.clock = until

    # -- access path ---------------------------------------------------------------

    def read_time(self, size: int) -> float:
        """Host-visible duration of one read of ``size`` bytes."""
        return self.spec.access_latency_s + transfer_time(
            size, self.spec.read_bandwidth_bps
        )

    def coupled_write_time(self, size: int) -> float:
        """Duration of one write with the erase folded in (SDP10/SDP5)."""
        return self.spec.access_latency_s + transfer_time(
            size, self.spec.write_bandwidth_bps
        )

    def async_write_time(self, fast_sectors: int, slow_sectors: int) -> float:
        """Duration of one SDP5A write split across pre-erased and coupled
        sectors."""
        spec = self.spec
        fast_bytes = fast_sectors * spec.sector_bytes
        slow_bytes = slow_sectors * spec.sector_bytes
        return (
            spec.access_latency_s
            + transfer_time(fast_bytes, spec.pre_erased_write_bandwidth_bps)
            + transfer_time(slow_bytes, spec.write_bandwidth_bps)
        )

    def sector_count(self, size: int) -> int:
        """Sectors written by a ``size``-byte operation (at least one)."""
        return max(1, math.ceil(size / self.spec.sector_bytes))

    def read(self, at: float, size: int, blocks: Sequence[int], file_id: int) -> float:
        start = self._begin(at)
        duration = self.read_time(size)
        self.energy.charge(AccessKind.READ.value, self.spec.active_power_w, duration)
        self.reads += 1
        self.bytes_read += size
        return self._finish(start, duration)

    def write(self, at: float, size: int, blocks: Sequence[int], file_id: int) -> float:
        start = self._begin(at)
        if self.async_erase:
            duration = self._async_write_duration(size, blocks)
        else:
            duration = self.coupled_write_time(size)
            self.coupled_sector_writes += self.sector_count(size)
            self._apply_mapping(blocks)
        self.energy.charge(AccessKind.WRITE.value, self.spec.active_power_w, duration)
        self.writes += 1
        self.bytes_written += size
        return self._finish(start, duration)

    def _apply_mapping(self, blocks: Sequence[int]) -> None:
        """Keep the sector map coherent in coupled mode (no timing impact)."""
        sector_map = self.sector_map
        sectors_per_block = self.sectors_per_block
        for block in blocks:
            base = block * sectors_per_block
            for offset in range(sectors_per_block):
                sector_map.write(base + offset)

    def _async_write_duration(self, size: int, blocks: Sequence[int]) -> float:
        """Split the write between pre-erased (fast) and coupled sectors."""
        sector_map = self.sector_map
        sectors_per_block = self.sectors_per_block
        fast_sectors = 0
        slow_sectors = 0
        for block in blocks:
            base = block * sectors_per_block
            for offset in range(sectors_per_block):
                if sector_map.write(base + offset):
                    fast_sectors += 1
                else:
                    slow_sectors += 1
        self.pre_erased_sector_writes += fast_sectors
        self.coupled_sector_writes += slow_sectors
        return self.async_write_time(fast_sectors, slow_sectors)

    def power_cycle(self, at: float) -> None:
        """Power loss: mappings survive in flash, but partial progress on
        the sector being erased is lost (the erase restarts)."""
        super().power_cycle(at)
        self._erase_progress_s = 0.0

    def delete(self, at: float, blocks: Sequence[int]) -> None:
        """Trim: deleted sectors join the dirty queue (async mode) so the
        background eraser can recycle them."""
        self.advance(at)
        sector_map = self.sector_map
        sectors_per_block = self.sectors_per_block
        for block in blocks:
            base = block * sectors_per_block
            for offset in range(sectors_per_block):
                sector_map.trim(base + offset)

    # -- reporting ---------------------------------------------------------------

    has_cleaning = True

    def cleaning_costs(self) -> tuple[float, float]:
        """Erasure is reclamation work; its wait is folded into write
        durations, so only the energy is separable."""
        return 0.0, self.energy.bucket_j("erase")

    def reset_accounting(self) -> None:
        super().reset_accounting()
        self.pre_erased_sector_writes = 0
        self.coupled_sector_writes = 0
        self.background_erasures = 0

    def stats(self) -> dict[str, float]:
        base = super().stats()
        base.update(
            {
                "pre_erased_sector_writes": self.pre_erased_sector_writes,
                "coupled_sector_writes": self.coupled_sector_writes,
                "background_erasures": self.background_erasures,
                "dirty_sectors": self.sector_map.dirty_sectors,
                "free_sectors": self.sector_map.free_sectors,
            }
        )
        if self._injector is not None:
            base["retired_sectors"] = self.sector_map.retired_sectors
        return base
