"""FlashCache: a flash memory card caching disk blocks.

The paper's related work (section 6) cites its companion study: "Marsh et
al. examined the use of flash memory as a cache for disk blocks to avoid
accessing the magnetic disk, thus allowing the disk to be spun down more of
the time [15]".  This module implements that architecture as an extension
experiment: a small flash card absorbs reads (after first touch) and
buffers writes, and the magnetic disk — demoted to backing store — sleeps
through most of the workload.

Semantics:

* **reads** of flash-resident blocks never touch the disk; misses read the
  disk (spinning it up if needed) and install the blocks into flash;
* **writes** go to flash and are marked dirty; dirty blocks flush to the
  disk in the background whenever the disk is awake anyway, or
  synchronously when the dirty backlog exceeds the watermark (data-loss
  exposure is bounded — flash is non-volatile, so this is a performance
  watermark, not a safety one);
* the flash card manages its space with its normal segment cleaning; when
  the card fills, clean (non-dirty) cached blocks are evicted LRU-style.

The class satisfies the :class:`~repro.devices.base.StorageDevice`
interface, so the standard hierarchy (DRAM in front) and simulator work
unchanged.  It keeps only the residency map and its hit/flush counters;
all cost math belongs to the composed disk and flash card.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence

from repro.devices.base import StorageDevice
from repro.devices.disk import MagneticDisk
from repro.devices.flashcard import FlashCard
from repro.errors import ConfigurationError


class FlashCacheDevice(StorageDevice):
    """A magnetic disk fronted by a flash-card block cache."""

    def __init__(
        self,
        disk: MagneticDisk,
        flash: FlashCard,
        dirty_watermark_blocks: int | None = None,
    ) -> None:
        super().__init__(f"flashcache({flash.name}+{disk.name})")
        self.disk = disk
        self.flash = flash
        #: flash block slots usable for caching.  Capped at 75% of the card
        #: so its own segment cleaner always finds reclaimable space — the
        #: paper's section 5.2 lesson applied to the cache itself.
        self.cache_capacity_blocks = max(
            1,
            min(
                int(0.75 * flash.total_blocks),
                flash.total_blocks - 3 * flash.blocks_per_segment,
            ),
        )
        if dirty_watermark_blocks is None:
            dirty_watermark_blocks = self.cache_capacity_blocks // 2
        if dirty_watermark_blocks < 1:
            raise ConfigurationError("dirty watermark must be >= 1 block")
        self.dirty_watermark_blocks = dirty_watermark_blocks
        self._resident: OrderedDict[int, bool] = OrderedDict()  # block -> dirty
        self.flash_read_hits = 0
        self.flash_read_misses = 0
        self.disk_flushes = 0

    # -- StorageDevice plumbing ---------------------------------------------------

    @property
    def busy_until(self) -> float:  # type: ignore[override]
        return max(self.disk.busy_until, self.flash.busy_until)

    @busy_until.setter
    def busy_until(self, value: float) -> None:
        # Set by the base-class constructor; children own their timelines.
        pass

    @property
    def clock(self) -> float:  # type: ignore[override]
        return max(self.disk.clock, self.flash.clock)

    @clock.setter
    def clock(self, value: float) -> None:
        pass

    def advance(self, until: float) -> None:
        self.disk.advance(max(until, self.disk.clock))
        self.flash.advance(max(until, self.flash.clock))

    def accepts_immediate_flush(self) -> bool:
        # An SRAM buffer in front (if configured) may always drain: the
        # flash absorbs it without waking the disk.
        return True

    def set_obs_sink(self, sink) -> None:
        # Spin events come from the disk, cleaning stalls from the flash;
        # the composite itself emits nothing.
        self.obs_sink = sink
        self.disk.set_obs_sink(sink)
        self.flash.set_obs_sink(sink)

    def power_cycle(self, at: float) -> None:
        # Both media lose power; the flash-resident cache map survives in
        # this model only for blocks already written back — dirty residency
        # metadata is rebuilt by the recovery scan, so nothing is lost here.
        self.disk.power_cycle(at)
        self.flash.power_cycle(at)

    def recover(self, at: float, duration: float) -> float:
        # The recovery scan reads the flash card's metadata; the disk just
        # spins up on the next access as usual.
        return self.flash.recover(at, duration)

    # -- cache bookkeeping ----------------------------------------------------------

    @property
    def dirty_blocks(self) -> int:
        """Flash-resident blocks not yet written back to the disk."""
        return sum(1 for dirty in self._resident.values() if dirty)

    def _touch(self, block: int, dirty: bool) -> list[int]:
        """Mark ``block`` resident (merging dirtiness); returns clean blocks
        evicted to make room."""
        evicted: list[int] = []
        if block in self._resident:
            self._resident[block] = self._resident[block] or dirty
            self._resident.move_to_end(block)
            return evicted
        while len(self._resident) >= self.cache_capacity_blocks:
            victim = self._evict_one_clean()
            if victim is None:
                break  # everything is dirty; flush handles pressure
            evicted.append(victim)
        self._resident[block] = dirty
        return evicted

    def _evict_one_clean(self) -> int | None:
        for block, dirty in self._resident.items():
            if not dirty:
                del self._resident[block]
                return block
        return None

    # -- operations -----------------------------------------------------------------

    def read(self, at: float, size: int, blocks: Sequence[int], file_id: int) -> float:
        self.advance(at)
        block_bytes = max(1, size // max(1, len(blocks)))
        hits = [b for b in blocks if b in self._resident]
        misses = [b for b in blocks if b not in self._resident]
        now = at
        if hits:
            start = max(now, self.flash.busy_until, self.flash.clock)
            now = self.flash.read(start, len(hits) * block_bytes, hits, file_id)
            self.flash_read_hits += len(hits)
        if misses:
            start = max(now, self.disk.busy_until, self.disk.clock)
            now = self.disk.read(start, len(misses) * block_bytes, misses, file_id)
            self.flash_read_misses += len(misses)
            # Install behind the read (the card writes while the caller
            # proceeds); evicted clean blocks just disappear.
            install_at = max(self.flash.busy_until, self.flash.clock)
            self.flash.write(
                install_at, len(misses) * block_bytes, misses, file_id
            )
            evicted: list[int] = []
            for block in misses:
                evicted.extend(self._touch(block, dirty=False))
            if evicted:
                # Clean evictions need no write-back, but the card must
                # invalidate them so its cleaner can reclaim the space.
                self.flash.delete(self.flash.clock, evicted)
            for block in misses:
                self._resident.move_to_end(block)
            # The disk is awake: drain any dirty backlog behind it.
            self._background_writeback(block_bytes, file_id)
        self.reads += 1
        self.bytes_read += size
        return now

    def write(self, at: float, size: int, blocks: Sequence[int], file_id: int) -> float:
        self.advance(at)
        block_bytes = max(1, size // max(1, len(blocks)))
        start = max(at, self.flash.busy_until, self.flash.clock)
        now = self.flash.write(start, size, blocks, file_id)
        evicted: list[int] = []
        for block in blocks:
            evicted.extend(self._touch(block, dirty=True))
        if evicted:
            self.flash.delete(now, evicted)
        if self.dirty_blocks > self.dirty_watermark_blocks:
            if self.disk.accepts_immediate_flush():
                self._background_writeback(block_bytes, file_id)
            else:
                # Watermark breached with the disk asleep: wake it and
                # flush synchronously — this is the hybrid's rare slow path.
                now = self._synchronous_writeback(now, block_bytes, file_id)
        self.writes += 1
        self.bytes_written += size
        return now

    def _dirty_list(self) -> list[int]:
        return [block for block, dirty in self._resident.items() if dirty]

    def _background_writeback(self, block_bytes: int, file_id: int) -> None:
        dirty = self._dirty_list()
        if not dirty:
            return
        start = max(self.disk.busy_until, self.disk.clock)
        self.disk.write(start, len(dirty) * block_bytes, dirty, file_id)
        for block in dirty:
            self._resident[block] = False
        self.disk_flushes += 1

    def _synchronous_writeback(
        self, now: float, block_bytes: int, file_id: int
    ) -> float:
        dirty = self._dirty_list()
        start = max(now, self.disk.busy_until, self.disk.clock)
        completion = self.disk.write(start, len(dirty) * block_bytes, dirty, file_id)
        for block in dirty:
            self._resident[block] = False
        self.disk_flushes += 1
        return completion

    def delete(self, at: float, blocks: Sequence[int]) -> None:
        self.advance(at)
        present = [b for b in blocks if b in self._resident]
        for block in present:
            del self._resident[block]
        if present:
            self.flash.delete(at, present)
        self.disk.delete(at, blocks)

    def finalize(self, until: float) -> None:
        # Write back any remaining dirty data, then close both accounts.
        if self.dirty_blocks:
            self._background_writeback(512, -1)
        self.advance(max(until, self.clock))

    # -- accounting -----------------------------------------------------------------

    @property
    def energy(self):  # type: ignore[override]
        return _MergedMeter(self)

    @energy.setter
    def energy(self, value) -> None:
        pass

    has_cleaning = True

    def cleaning_costs(self) -> tuple[float, float]:
        """Reclamation happens on the flash cache; the disk never cleans."""
        return self.flash.cleaning_costs()

    def reset_accounting(self) -> None:
        self.disk.reset_accounting()
        self.flash.reset_accounting()
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.flash_read_hits = 0
        self.flash_read_misses = 0
        self.disk_flushes = 0

    def wear(self, duration_s: float):
        """Erase-count summary of the flash-cache card."""
        return self.flash.wear(duration_s)

    def stats(self) -> dict[str, float]:
        base = super().stats()
        base.update(
            {
                "flash_read_hits": self.flash_read_hits,
                "flash_read_misses": self.flash_read_misses,
                "disk_flushes": self.disk_flushes,
                "dirty_blocks": self.dirty_blocks,
                "spin_ups": self.disk.spin_ups,
                "segments_cleaned": self.flash.segments_cleaned,
            }
        )
        return base


class _MergedMeter:
    """Read-only energy view over the disk + flash meters."""

    def __init__(self, owner: FlashCacheDevice) -> None:
        self._owner = owner

    @property
    def total_j(self) -> float:
        return (
            self._owner.disk.energy.total_j + self._owner.flash.energy.total_j
        )

    @property
    def running_j(self) -> float:
        return (
            self._owner.disk.energy.running_j + self._owner.flash.energy.running_j
        )

    def breakdown(self) -> dict[str, float]:
        merged: dict[str, float] = {}
        for prefix, meter in (
            ("disk:", self._owner.disk.energy),
            ("flash:", self._owner.flash.energy),
        ):
            for bucket, joules in meter.breakdown().items():
                merged[prefix + bucket] = joules
        return merged

    def reset(self) -> None:
        self._owner.disk.energy.reset()
        self._owner.flash.energy.reset()
