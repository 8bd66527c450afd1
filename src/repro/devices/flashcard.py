"""Byte-addressable flash memory card model (Intel Series 2 / 2+).

The card is organised as fixed-size erasure **segments** (64/128 Kbytes).
Writes are out-of-place: each logical block is appended to the current
*write-head* segment, and the previous version becomes dead.  Reclaiming
dead space requires copying any remaining live blocks out of a victim
segment and erasing it — a fixed 1.6 s on the Series 2 regardless of how
much data is erased (paper section 2).

Cleaning follows the paper's simulator rules (section 4.2):

* "the simulator attempts to keep at least one segment erased at all
  times" (the card always cleans in the background, as the Flash File
  System does);
* "One segment is filled completely before data blocks are written to a
  new segment";
* "Erasures take place in parallel with reads and writes, being suspended
  during the actual I/O operations, unless a write occurs when no segment
  has erased blocks" — in which case the write stalls while cleaning runs
  in the foreground.

Cleaning copies go to a separate *cleaner-head* segment so the cleaner can
always make progress; the write head leaves the last erased segment to the
cleaner whenever there is anything worth cleaning.

The card keeps its segment array, logical map, heads, in-flight cleaning
job and counters as plain attributes (``segments``, ``segments_cleaned``,
...), and fixes its per-block write and copy seconds at construction.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence

from repro.devices.base import AccessKind, StorageDevice
from repro.devices.specs import FlashCardSpec
from repro.errors import ConfigurationError, FlashOutOfSpaceError
from repro.flash.cleaner import CleaningPolicy, GreedyPolicy
from repro.flash.segment import Segment
from repro.flash.wear import WearStats, wear_stats
from repro.units import transfer_time


class _CleaningJob:
    """An in-progress segment reclamation: copy out live blocks, then erase."""

    __slots__ = ("victim", "copy_queue", "copy_progress_s", "erase_remaining_s")

    def __init__(self, victim: Segment, erase_time_s: float) -> None:
        self.victim = victim
        self.copy_queue: deque[int] = deque(victim.live)
        self.copy_progress_s = 0.0
        self.erase_remaining_s = erase_time_s


class FlashCard(StorageDevice):
    """A segment-erased flash memory card with background cleaning.

    Args:
        spec: device parameters.
        capacity_bytes: card size (defaults to the spec's capacity); must be
            a multiple of the segment size.
        block_bytes: logical block size (the file-system block size).
        policy: victim-selection policy (default: greedy lowest-utilization,
            as in MFFS).
        injector: optional fault injector; when present, segment erases may
            fail permanently (probability scaling with wear) and the card
            degrades by remapping onto spares, then by shrinking capacity.
        spare_segments: spare erase units available for bad-block remapping
            before retirements start costing capacity.
    """

    def __init__(
        self,
        spec: FlashCardSpec,
        capacity_bytes: int | None = None,
        block_bytes: int = 1024,
        policy: CleaningPolicy | None = None,
        injector=None,
        spare_segments: int = 0,
    ) -> None:
        super().__init__(spec.name)
        self.spec = spec
        self.capacity_bytes = (
            spec.capacity_bytes if capacity_bytes is None else capacity_bytes
        )
        if self.capacity_bytes % spec.segment_bytes:
            raise ConfigurationError(
                f"capacity {self.capacity_bytes} is not a multiple of the "
                f"{spec.segment_bytes}-byte segment"
            )
        if spec.segment_bytes % block_bytes:
            raise ConfigurationError(
                f"segment size {spec.segment_bytes} is not a multiple of "
                f"block size {block_bytes}"
            )
        self.block_bytes = block_bytes
        self.blocks_per_segment = spec.segment_bytes // block_bytes
        n_segments = self.capacity_bytes // spec.segment_bytes
        if n_segments < 3:
            raise ConfigurationError("flash card needs at least 3 segments")
        self.segments = [
            Segment(i, self.blocks_per_segment) for i in range(n_segments)
        ]
        self._map: dict[int, int] = {}  # logical block -> segment
        self._erased: deque[int] = deque(range(n_segments))
        self._write_head: Segment | None = None
        self._clean_head: Segment | None = None
        self._job: _CleaningJob | None = None
        self.spares_remaining = max(0, spare_segments)
        self.policy = policy if policy is not None else GreedyPolicy()
        #: erased segments background cleaning keeps in stock: "at least
        #: one segment erased at all times" (paper section 4.2)
        self.reserve_segments = 1
        self._injector = injector

        # Per-block timing, fixed by the spec and block size for the card's
        # lifetime; precomputed because the write and cleaning paths
        # consult them once per block.
        self.block_write_s = spec.write_latency_s + transfer_time(
            block_bytes, spec.write_bandwidth_bps
        )
        # Cleaning copies stay inside the card/driver and move at hardware
        # speed, without the host file-system overhead of ordinary I/O.
        self.block_copy_s = (
            spec.read_latency_s
            + transfer_time(block_bytes, spec.copy_read_bandwidth_bps)
            + transfer_time(block_bytes, spec.copy_write_bandwidth_bps)
        )

        self.segments_cleaned = 0
        self.blocks_copied = 0
        self.stalled_writes = 0
        self.write_stall_s = 0.0
        self.erase_failures = 0
        self.remapped_segments = 0
        self.retired_segments = 0

    # -- derived quantities ---------------------------------------------------------

    @property
    def total_blocks(self) -> int:
        """Total block slots on the card."""
        return len(self.segments) * self.blocks_per_segment

    @property
    def live_blocks(self) -> int:
        """Blocks currently holding live data."""
        return len(self._map)

    @property
    def utilization(self) -> float:
        """Fraction of the card holding live data (the paper's 'flash
        storage utilization')."""
        return self.live_blocks / self.total_blocks

    @property
    def erased_segment_count(self) -> int:
        """Fully-erased segments in stock."""
        return len(self._erased)

    def wear(self, duration_s: float) -> WearStats:
        """Erase-count summary over ``duration_s`` of simulated time."""
        return wear_stats(self.segments, self.spec.endurance_cycles, duration_s)

    def check_invariants(self) -> None:
        """Validate segment accounting and the logical map (used by tests)."""
        for segment in self.segments:
            segment.check_invariant()
        for logical, index in self._map.items():
            if logical not in self.segments[index].live:
                raise FlashOutOfSpaceError(
                    f"map says block {logical} lives in segment {index}, "
                    "but the segment disagrees"
                )
        mapped = sum(segment.live_blocks for segment in self.segments)
        if mapped != len(self._map):
            raise FlashOutOfSpaceError("live-block count mismatch")

    # -- setup ---------------------------------------------------------------------

    def preload(self, logical_blocks: Iterable[int]) -> None:
        """Instantly install live data at time zero (no time or energy).

        The paper preallocates both the trace's dataset and enough filler to
        hit the target storage utilization (section 4.2).
        """
        if (
            isinstance(logical_blocks, range)
            and logical_blocks.step == 1
            and not self._map
            and self._write_head is None
        ):
            # Fast path for the stock call shape (a fresh card, contiguous
            # blocks): fill whole segments at C speed.  The resulting sets
            # and dict are built by the same ascending insertions the
            # per-block loop performs, so their iteration order — which
            # cleaning-job snapshots observe — is identical.
            segments = self.segments
            head = None
            for lo in range(logical_blocks.start, logical_blocks.stop,
                            self.blocks_per_segment):
                hi = min(lo + self.blocks_per_segment, logical_blocks.stop)
                if not self._erased:
                    raise FlashOutOfSpaceError("preload exceeds card capacity")
                head = segments[self._erased.popleft()]
                head.live = set(range(lo, hi))
                head.free_blocks = head.capacity - (hi - lo)
                head.last_write_time = 0.0
                self._map.update(dict.fromkeys(range(lo, hi), head.index))
            if head is not None:
                self._write_head = head
        else:
            for logical in logical_blocks:
                if logical in self._map:
                    continue
                head = self._write_head
                if head is None or head.is_full:
                    if not self._erased:
                        raise FlashOutOfSpaceError(
                            "preload exceeds card capacity"
                        )
                    head = self.segments[self._erased.popleft()]
                    self._write_head = head
                head.allocate(logical, 0.0)
                self._map[logical] = head.index
        max_live = self.total_blocks - self.blocks_per_segment
        if self.live_blocks > max_live:
            raise ConfigurationError(
                f"preload of {self.live_blocks} blocks leaves less than one "
                f"free segment on a {self.total_blocks}-block card; cleaning "
                "could never make progress"
            )

    # -- cleaning ------------------------------------------------------------------

    def _needs_cleaning(self) -> bool:
        # Clean proactively: start as soon as the stock of erased segments
        # drops to the reserve, so a fresh segment is (usually) ready by the
        # time the write head fills the current one.
        return len(self._erased) <= self.reserve_segments

    def _head_indices(self) -> set[int]:
        """Segments no victim may touch: heads still accepting appends.

        A *full* head is finished — it is ordinary data and a legitimate
        cleaning victim (a cleaner head that filled up with since-died
        copies may even be entirely dead).  A head whose every block has
        died is likewise fair game: erasing it costs no copies, and at tight
        utilization it can be the only way to make progress.
        """

        def protected(head: Segment | None) -> bool:
            return head is not None and not head.is_full and head.live_blocks > 0

        exclude = set()
        if protected(self._write_head):
            exclude.add(self._write_head.index)
        if protected(self._clean_head):
            exclude.add(self._clean_head.index)
        return exclude

    def _cleaner_headroom(self) -> int:
        """Block slots the cleaner could copy into right now."""
        head_free = self._clean_head.free_blocks if self._clean_head else 0
        return head_free + len(self._erased) * self.blocks_per_segment

    def _start_job(self, now: float) -> bool:
        """Select a victim and open a cleaning job.  Returns success.

        Victims whose live data cannot fit in the cleaner's current
        headroom are skipped: cleaning a smaller (or emptier) segment first
        grows the headroom, and refusing infeasible victims is what keeps
        the cleaner deadlock-free at very high utilization.
        """
        if self._job is not None:
            return True
        headroom = self._cleaner_headroom()
        feasible = [
            segment for segment in self.segments if segment.live_blocks <= headroom
        ]
        victim = self.policy.choose_victim(feasible, self._head_indices(), now)
        if victim is None:
            return False
        if victim is self._write_head:
            self._write_head = None
        if victim is self._clean_head:
            self._clean_head = None
        self._job = _CleaningJob(victim, self.spec.erase_time_s)
        return True

    def _alloc_for_cleaner(self, logical: int, now: float) -> None:
        head = self._clean_head
        if head is None or head.is_full:
            if not self._erased:
                raise FlashOutOfSpaceError(
                    "cleaner has nowhere to copy live data; the card is "
                    "over-committed (utilization too high)"
                )
            head = self.segments[self._erased.popleft()]
            self._clean_head = head
        head.allocate(logical, now)
        self._map[logical] = head.index

    def _job_step(self, now: float, budget: float, bucket: str) -> tuple[float, float]:
        """Run up to ``budget`` seconds of the current job at time ``now``.

        Returns ``(time_consumed, new_now)``.  Copy work is charged at the
        active power, erase work at the erase power, both into ``bucket``.
        """
        job = self._job
        assert job is not None
        charge = self.energy.charge
        spec = self.spec
        consumed = 0.0

        while job.copy_queue and budget > 0:
            logical = job.copy_queue[0]
            if logical not in job.victim.live:
                # Overwritten or deleted since the job started; nothing to copy.
                job.copy_queue.popleft()
                continue
            needed = self.block_copy_s - job.copy_progress_s
            if budget < needed:
                job.copy_progress_s += budget
                charge(bucket, spec.active_power_w, budget)
                consumed += budget
                return consumed, now + consumed
            charge(bucket, spec.active_power_w, needed)
            budget -= needed
            consumed += needed
            job.copy_progress_s = 0.0
            job.copy_queue.popleft()
            job.victim.invalidate(logical)
            self._alloc_for_cleaner(logical, now + consumed)
            self.blocks_copied += 1

        if not job.copy_queue and budget > 0:
            step = min(budget, job.erase_remaining_s)
            charge(bucket, spec.erase_power_w, step)
            job.erase_remaining_s -= step
            consumed += step
            if job.erase_remaining_s <= 1e-12:
                self._complete_erase(job.victim)
                self._job = None

        return consumed, now + consumed

    def _complete_erase(self, victim: Segment) -> None:
        """Finish a cleaning job's erase, which may fail permanently.

        A failed erase is a bad-block event: the segment is transparently
        remapped onto a spare while spares last (the spare arrives erased,
        so the card's capacity is unchanged), and retired outright once
        they run out — shrinking effective capacity until writes can no
        longer find space and :class:`FlashOutOfSpaceError` is raised.
        """
        if self._injector is not None and self._injector.erase_failure(
            victim.erase_count, self.spec.endurance_cycles
        ):
            self.erase_failures += 1
            if self.spares_remaining > 0:
                self.spares_remaining -= 1
                self.remapped_segments += 1
                victim.remap_to_spare()
                self._erased.append(victim.index)
                self.segments_cleaned += 1
            else:
                victim.retire()
                self.retired_segments += 1
            return
        victim.erase()
        self._erased.append(victim.index)
        self.segments_cleaned += 1

    def _run_job_to_completion(self, now: float, bucket: str) -> float:
        """Run the current job until its segment is erased (foreground)."""
        while self._job is not None:
            _, now = self._job_step(now, float("inf"), bucket)
        return now

    # -- idle-time behaviour -----------------------------------------------------------

    def advance(self, until: float) -> None:
        if until <= self.clock:
            return
        budget = until - self.clock
        while budget > 1e-12:
            if self._job is None:
                if not self._needs_cleaning() or not self._start_job(self.clock):
                    break
            consumed, _ = self._job_step(self.clock, budget, "clean")
            self.clock += consumed
            budget -= consumed
            if consumed <= 0:
                break
        if budget > 0:
            self.energy.charge("idle", self.spec.idle_power_w, budget)
            self.clock = until
        self.clock = until

    # -- access path ---------------------------------------------------------------

    def read_time(self, size: int) -> float:
        """Host-visible duration of one read of ``size`` bytes."""
        return self.spec.read_latency_s + transfer_time(
            size, self.spec.read_bandwidth_bps
        )

    def read(self, at: float, size: int, blocks: Sequence[int], file_id: int) -> float:
        start = self._begin(at)
        duration = self.read_time(size)
        self.energy.charge(AccessKind.READ.value, self.spec.active_power_w, duration)
        self.reads += 1
        self.bytes_read += size
        return self._finish(start, duration)

    def write(self, at: float, size: int, blocks: Sequence[int], file_id: int) -> float:
        start = self._begin(at)
        now = start
        write_block = self._write_block
        for logical in blocks:
            now = write_block(now, logical)
        self.writes += 1
        self.bytes_written += size
        self.clock = now
        self.busy_until = now
        return now

    def _write_block(self, now: float, logical: int) -> float:
        old_index = self._map.pop(logical, None)
        if old_index is not None:
            self.segments[old_index].invalidate(logical)

        head = self._write_head
        if head is None or head.is_full:
            now = self._ensure_erased_for_write(now)
            head = self.segments[self._erased.popleft()]
            self._write_head = head

        head.allocate(logical, now)
        self._map[logical] = head.index
        duration = self.block_write_s
        self.energy.charge(AccessKind.WRITE.value, self.spec.active_power_w, duration)

        if self._needs_cleaning():
            self._start_job(now)
        return now + duration

    def _write_head_may_pop(self, now: float) -> bool:
        """May the write head consume an erased segment right now?

        The last erased segment is reserved for the cleaner whenever there
        is (or soon could be) something to clean; otherwise nothing could
        ever be reclaimed once the card fills.
        """
        available = len(self._erased)
        if available == 0:
            return False
        if available >= 2:
            return True
        if self._job is not None:
            return False  # the in-flight cleaning may need it for copies
        return (
            self.policy.choose_victim(self.segments, self._head_indices(), now)
            is None
        )

    def _ensure_erased_for_write(self, now: float) -> float:
        """Stall (foreground-clean) until the write head may take a segment."""
        if self._write_head_may_pop(now):
            return now
        stall_start = now
        while not self._write_head_may_pop(now):
            if self._job is None and not self._start_job(now):
                detail = ""
                if self.retired_segments:
                    detail = (
                        f" ({self.retired_segments} segments retired as bad "
                        "blocks and no spares remain)"
                    )
                raise FlashOutOfSpaceError(
                    "write needs an erased segment but nothing can be "
                    f"cleaned{detail}"
                )
            now = self._run_job_to_completion(now, "clean")
        self.stalled_writes += 1
        self.write_stall_s += now - stall_start
        if self.obs_sink is not None:
            self.obs_sink("cleaning", stall_start, now - stall_start, self.name)
        return now

    def delete(self, at: float, blocks: Sequence[int]) -> None:
        """Invalidate deleted blocks; their space is reclaimed by cleaning."""
        self.advance(at)
        for logical in blocks:
            index = self._map.pop(logical, None)
            if index is not None:
                self.segments[index].invalidate(logical)

    def power_cycle(self, at: float) -> None:
        """Power loss: flash contents survive, but the in-flight cleaning
        job is aborted — blocks already copied stay copied (they went to
        the cleaner head), while the interrupted erase must restart from
        scratch on the next attempt."""
        super().power_cycle(at)
        self._job = None

    # -- reporting ---------------------------------------------------------------

    has_cleaning = True

    def cleaning_costs(self) -> tuple[float, float]:
        """Foreground stall time plus all energy charged to cleaning."""
        return self.write_stall_s, self.energy.bucket_j("clean")

    def reset_accounting(self) -> None:
        super().reset_accounting()
        self.segments_cleaned = 0
        self.blocks_copied = 0
        self.stalled_writes = 0
        self.write_stall_s = 0.0
        self.erase_failures = 0
        self.remapped_segments = 0
        self.retired_segments = 0
        for segment in self.segments:
            segment.erase_count = 0

    def stats(self) -> dict[str, float]:
        base = super().stats()
        base.update(
            {
                "segments_cleaned": self.segments_cleaned,
                "blocks_copied": self.blocks_copied,
                "stalled_writes": self.stalled_writes,
                "write_stall_s": self.write_stall_s,
                "utilization": self.utilization,
                "erased_segments": self.erased_segment_count,
            }
        )
        if self._injector is not None:
            base.update(
                {
                    "erase_failures": self.erase_failures,
                    "remapped_segments": self.remapped_segments,
                    "retired_segments": self.retired_segments,
                    "spares_remaining": self.spares_remaining,
                }
            )
        return base
