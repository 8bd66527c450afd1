"""The DRAM buffer cache.

"Our simulator models a storage hierarchy containing a buffer cache and
non-volatile storage.  The buffer cache is the first level searched on a
read and is the target of all write operations.  The cache is write-through
to non-volatile storage, which is typical of Macintosh and some DOS
environments.  A write-back cache might avoid some erasures at the cost of
occasional data loss.  ...  the buffer cache can have zero size, in which
case reads and writes go directly to non-volatile storage."  (paper 4.2)

Both modes are implemented; write-back exists for ablation A4.  DRAM energy
has a standby component proportional to size (refresh never stops), which
is what makes "spend money on more DRAM vs. more flash" a real trade-off in
the paper's Figure 4.

Eviction is least-recently-used.  The paper does not name its replacement
policy; LRU is the natural one for a 1994 buffer cache (what the Macintosh
and DOS caches of the era approximated), and it is what the vector
kernel's DRAM classification (:mod:`repro.kernel.dram`) replays.  The
resident blocks are one ``OrderedDict`` kept in recency order.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Sequence

from repro.devices.power import EnergyMeter
from repro.devices.specs import MemorySpec
from repro.errors import ConfigurationError
from repro.units import transfer_time


class BufferCache:
    """A block-granular DRAM cache.

    Args:
        capacity_bytes: cache size; 0 disables the cache entirely.
        block_bytes: cache-block size (the trace's file-system block size).
        spec: DRAM part parameters (timing and power).
        write_back: hold dirty blocks instead of writing through.
    """

    def __init__(
        self,
        capacity_bytes: int,
        block_bytes: int,
        spec: MemorySpec,
        write_back: bool = False,
    ) -> None:
        if capacity_bytes < 0:
            raise ConfigurationError("capacity_bytes must be >= 0")
        if block_bytes <= 0:
            raise ConfigurationError("block_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self.block_bytes = block_bytes
        self.capacity_blocks = capacity_bytes // block_bytes
        self.spec = spec
        self.write_back = write_back
        #: resident blocks, least recently used first
        self.resident: OrderedDict[int, None] = OrderedDict()
        self.energy = EnergyMeter(f"dram-{capacity_bytes}B")
        self.clock = 0.0
        self.hits = 0
        self.misses = 0
        self._dirty: set[int] = set()
        # Refresh draw is fixed by the part and the size; advance() runs
        # once per request, so the product is precomputed here.
        self._standby_w = spec.standby_power_w_per_byte * capacity_bytes

    @property
    def enabled(self) -> bool:
        """False for the zero-size configuration (the ``hp`` trace)."""
        return self.capacity_blocks > 0

    # -- energy ------------------------------------------------------------------

    def advance(self, until: float) -> None:
        """Charge standby (refresh) power up to ``until``."""
        if until <= self.clock:
            return
        self.energy.charge("standby", self._standby_w, until - self.clock)
        self.clock = until

    def access_time(self, nbytes: int) -> float:
        """Time to move ``nbytes`` through the cache, charging active power."""
        if nbytes <= 0 or not self.enabled:
            return 0.0
        duration = self.spec.access_latency_s + transfer_time(
            nbytes, self.spec.bandwidth_bps
        )
        self.energy.charge("active", self.spec.active_power_w, duration)
        return duration

    # -- lookup / install ------------------------------------------------------------

    def lookup(self, blocks: Sequence[int]) -> tuple[list[int], list[int]]:
        """Partition ``blocks`` into (hits, misses), touching the hits."""
        if not self.enabled:
            return [], list(blocks)
        resident = self.resident
        hit_list: list[int] = []
        miss_list: list[int] = []
        for block in blocks:
            if block in resident:
                resident.move_to_end(block)
                hit_list.append(block)
            else:
                miss_list.append(block)
        self.hits += len(hit_list)
        self.misses += len(miss_list)
        return hit_list, miss_list

    def install(self, blocks: Iterable[int], dirty: bool = False) -> list[int]:
        """Make ``blocks`` resident; returns evicted *dirty* blocks that the
        caller must write to the device (write-back mode only)."""
        if not self.enabled:
            return []
        resident = self.resident
        evicted_dirty: list[int] = []
        for block in blocks:
            if block in resident:
                resident.move_to_end(block)
            else:
                while len(resident) >= self.capacity_blocks:
                    victim, _ = resident.popitem(last=False)
                    if victim in self._dirty:
                        self._dirty.discard(victim)
                        evicted_dirty.append(victim)
                resident[block] = None
            if dirty and self.write_back:
                self._dirty.add(block)
        return evicted_dirty

    def invalidate(self, blocks: Iterable[int]) -> None:
        """Drop ``blocks`` (file deletion)."""
        if not self.enabled:
            return
        for block in blocks:
            self.resident.pop(block, None)
            self._dirty.discard(block)

    def drain_dirty(self) -> list[int]:
        """Return and clear all dirty blocks (end-of-simulation flush)."""
        dirty = sorted(self._dirty)
        self._dirty.clear()
        return dirty

    def drop_all(self) -> tuple[int, int]:
        """Lose every resident block (power loss: DRAM is volatile).

        Returns ``(resident, dirty)`` counts; in write-back mode the dirty
        blocks are gone for good — the "occasional data loss" the paper's
        section 4.2 warns a write-back cache trades for fewer erasures.
        """
        resident = len(self.resident)
        dirty = len(self._dirty)
        self.resident.clear()
        self._dirty.clear()
        return resident, dirty

    @property
    def dirty_blocks(self) -> int:
        """Number of resident dirty blocks (write-back mode)."""
        return len(self._dirty)

    @property
    def resident_blocks(self) -> int:
        """Number of blocks currently resident (occupancy gauge)."""
        return len(self.resident)

    @property
    def hit_rate(self) -> float:
        """Fraction of looked-up blocks found resident."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_accounting(self) -> None:
        """Zero energy and hit counters (warm-start boundary)."""
        self.energy.reset()
        self.hits = 0
        self.misses = 0
