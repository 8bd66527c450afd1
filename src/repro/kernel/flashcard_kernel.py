"""Lean flash-card kernel: the card's cleaning machinery on a diet.

The card's timing is sequential and data-dependent (out-of-place writes,
greedy victim selection, background cleaning consuming idle budget), so it
cannot be advanced as closed-form array math the way the disk and flash
disk can.  What the vector path removes instead is everything *around* the
device: the request/response pool, hook bus, per-request attribution, and
the EnergyMeter's per-charge dict updates become four float accumulators
and one tight loop.

Exactness discipline: this module mirrors
:class:`~repro.devices.flashcard.FlashCard`'s write, cleaning and idle
code expression-for-expression, on the card itself.  It starts from the
hierarchy's freshly built, preloaded card and keeps all of its state
there: the ``segments``, logical map and erased stock, the write and
cleaner heads, the in-flight cleaning job (a ``_CleaningJob``), both
clocks and the op, cleaning and stall counters.  So after a run the card
is in the state the event path leaves it in.  The hot loop holds the
clocks and op counters in locals and writes them back around every call
that reads them.  The kernel's own state is its four energy floats (copy
energy is one multiply per job step, a reassociation the kernel gate
licenses), the per-layer latency sums, and per-segment live/free counts
that shadow the segments for victim selection.

The kernel mutates the card's :class:`~repro.flash.segment.Segment`
objects through the same insert/remove sequences the card does.  That
matters because a cleaning job snapshots ``deque(victim.live)`` — a set
whose iteration order depends on its mutation history — so any shortcut
that reordered set operations would reorder cleaning copies and diverge
from the event path.  Only greedy victim selection is supported; other
policies fall back to the batched path.
"""

from __future__ import annotations

import numpy as np

from repro.devices.flashcard import _CleaningJob
from repro.errors import FlashOutOfSpaceError
from repro.traces.trace import READ, WRITE


class CardKernel:
    """One flash-card simulation driven straight from compiled arrays."""

    def __init__(self, card, dram_plan, block_bytes: int) -> None:
        self.card = card  # a fully built, preloaded FlashCard
        self.dram_plan = dram_plan
        self.block_bytes = block_bytes
        spec = card.spec
        self.active_w = spec.active_power_w
        self.erase_w = spec.erase_power_w
        self.idle_w = spec.idle_power_w
        self.read_latency_s = spec.read_latency_s
        self.read_bw = spec.read_bandwidth_bps
        self.erase_time_s = spec.erase_time_s
        self.block_write_s = card.block_write_s
        self.block_copy_s = card.block_copy_s
        self.bps = card.blocks_per_segment
        self.reserve = card.reserve_segments

        self.segments = card.segments
        self.smap = card._map
        self.erased = card._erased
        # Per-segment live/free counters shadowing the Segment objects, so
        # victim selection is an argmin over arrays instead of a Python
        # scan of every segment.  (No segment retires in the vector
        # envelope — retirement needs a fault injector.)
        self.live_n = [len(s.live) for s in self.segments]
        self.free_n = [s.free_blocks for s in self.segments]

        # Measured-window accounting (zeroed at the warm boundary).
        self.e_read = 0.0
        self.e_write = 0.0
        self.e_clean = 0.0
        self.e_idle = 0.0
        self.device_latency_s = 0.0
        self.cleaning_latency_s = 0.0

    # -- cleaning (mirrors FlashCard._start_job/_job_step/advance) ---------

    def _needs_cleaning(self) -> bool:
        return len(self.erased) <= self.reserve

    def _head_excludes(self) -> set:
        exclude = set()
        head = self.card._write_head
        if head is not None and head.free_blocks != 0 and head.live:
            exclude.add(head.index)
        head = self.card._clean_head
        if head is not None and head.free_blocks != 0 and head.live:
            exclude.add(head.index)
        return exclude

    def _find_victim(self, headroom=None):
        """Greedy victim (min live count, ties to lowest index) or None.

        Matches ``GreedyPolicy.choose_victim`` over the (optionally
        headroom-filtered) segment list: erased and fully-live segments
        are skipped, the write/clean heads are excluded while partially
        filled.
        """
        bps = self.bps
        live_n = self.live_n
        free_n = self.free_n
        excludes = self._head_excludes()
        best = -1
        best_live = bps  # fully-live segments are never candidates
        for index, count in enumerate(live_n):
            if (count >= best_live
                    or free_n[index] == bps
                    or (headroom is not None and count > headroom)
                    or index in excludes):
                continue
            best = index
            best_live = count
        if best < 0:
            return None
        return self.segments[best]

    def _start_job(self, now: float) -> bool:
        card = self.card
        if card._job is not None:
            return True
        head = card._clean_head
        headroom = (head.free_blocks if head is not None else 0) + len(
            self.erased
        ) * self.bps
        victim = self._find_victim(headroom)
        if victim is None:
            return False
        if victim is card._write_head:
            card._write_head = None
        if victim is card._clean_head:
            card._clean_head = None
        card._job = _CleaningJob(victim, self.erase_time_s)
        return True

    def _job_step(self, now: float, budget: float) -> tuple[float, float]:
        card = self.card
        job = card._job
        victim = job.victim
        queue = job.copy_queue
        consumed = 0.0
        block_copy_s = self.block_copy_s
        active_w = self.active_w
        live = victim.live
        live_n = self.live_n
        free_n = self.free_n
        segments = self.segments
        smap = self.smap
        erased = self.erased
        e_clean = self.e_clean
        copied = 0
        # The copy loop is the hottest code in a cleaning-bound run, so
        # the clean head and the per-segment counters live in locals and
        # are flushed in batches: nothing reads them mid-step (victim
        # selection only runs between steps).
        progress = job.copy_progress_s
        head = card._clean_head
        if head is not None:
            head_index = head.index
            head_live = head.live
            head_free = head.free_blocks
        else:
            head_index = -1
            head_live = None
            head_free = 0
        batch = 0
        alloc_t = now
        while queue and budget > 0:
            logical = queue[0]
            if logical not in live:
                queue.popleft()
                continue
            needed = block_copy_s - progress
            if budget < needed:
                progress += budget
                consumed += budget
                budget = 0.0
                break
            budget -= needed
            consumed += needed
            progress = 0.0
            queue.popleft()
            live.remove(logical)
            if head_free == 0:
                if head is not None:
                    head.free_blocks = 0
                    if batch:
                        live_n[head_index] += batch
                        free_n[head_index] -= batch
                        head.last_write_time = alloc_t
                        batch = 0
                head = segments[erased.popleft()]
                card._clean_head = head
                head_index = head.index
                head_live = head.live
                head_free = head.free_blocks
            head_free -= 1
            head_live.add(logical)
            alloc_t = now + consumed
            smap[logical] = head_index
            batch += 1
            copied += 1
        if head is not None:
            head.free_blocks = head_free
            if batch:
                live_n[head_index] += batch
                free_n[head_index] -= batch
                head.last_write_time = alloc_t
        job.copy_progress_s = progress
        # Copy energy in one multiply: every second consumed inside the
        # loop is copy work at active power, and energy is a tolerance-
        # covered sum, so reassociation is licensed.
        self.e_clean = e_clean + active_w * consumed
        if copied:
            live_n[victim.index] -= copied
            victim.dead_blocks += copied
            card.blocks_copied += copied
        if not queue and budget > 0:
            step = min(budget, job.erase_remaining_s)
            self.e_clean += self.erase_w * step
            job.erase_remaining_s -= step
            consumed += step
            if job.erase_remaining_s <= 1e-12:
                victim.erase()
                self.free_n[victim.index] = self.bps
                self.erased.append(victim.index)
                card.segments_cleaned += 1
                card._job = None
        return consumed, now + consumed

    def _advance(self, until: float) -> None:
        card = self.card
        clock = card.clock
        if until <= clock:
            return
        # Fast path: no job running and none startable means the whole
        # span is idle (identical arithmetic to falling out of the loop
        # below on its first test).
        if card._job is None and len(self.erased) > self.reserve:
            self.e_idle += self.idle_w * (until - clock)
            card.clock = until
            return
        budget = until - clock
        while budget > 1e-12:
            if card._job is None:
                if not self._needs_cleaning() or not self._start_job(clock):
                    break
            consumed, _ = self._job_step(clock, budget)
            clock += consumed
            budget -= consumed
            if consumed <= 0:
                break
        if budget > 0:
            self.e_idle += self.idle_w * budget
        card.clock = until

    # -- write path (mirrors FlashCard.write/_write_block) ------------------

    def _write_head_may_pop(self, now: float) -> bool:
        available = len(self.erased)
        if available == 0:
            return False
        if available >= 2:
            return True
        if self.card._job is not None:
            return False
        return self._find_victim() is None

    def _ensure_erased_for_write(self, now: float) -> float:
        if self._write_head_may_pop(now):
            return now
        card = self.card
        stall_start = now
        while not self._write_head_may_pop(now):
            if card._job is None and not self._start_job(now):
                raise FlashOutOfSpaceError(
                    "write needs an erased segment but nothing can be cleaned"
                )
            while card._job is not None:
                _, now = self._job_step(now, float("inf"))
        card.stalled_writes += 1
        card.write_stall_s += now - stall_start
        return now

    # -- the run loop --------------------------------------------------------
    #
    # The write path (mirroring FlashCard.write/_write_block) is inlined
    # into the loop body: writes dominate the op stream and a method call
    # per write would re-bind a dozen locals 80k+ times per trace.

    def run(self, compiled, wait: np.ndarray, warm_count: int,
            trace_duration: float) -> dict:
        card = self.card
        # Plain Python scalars: element reads from NumPy arrays return
        # boxed np.float64s whose arithmetic is several times slower, and
        # they would poison every downstream float in this loop.
        times = compiled.time.tolist()
        kinds = compiled.op_codes.tolist()
        sizes = compiled.size.tolist()
        waits = wait.tolist()
        all_blocks = compiled.blocks
        plan = self.dram_plan
        if plan is not None:
            dev_counts = plan.miss_counts.tolist()
        else:
            dev_counts = compiled.n_blocks.tolist()
        bb = self.block_bytes
        read_latency = self.read_latency_s
        read_bw = self.read_bw
        active_w = self.active_w
        idle_w = self.idle_w
        smap = self.smap
        segments = self.segments
        erased = self.erased
        live_n = self.live_n
        free_n = self.free_n
        block_write_s = self.block_write_s
        write_energy = active_w * block_write_s
        reserve = self.reserve

        # Hot accounting state lives in locals for the duration of the
        # loop; the few method calls that read or write it (_advance,
        # _ensure_erased_for_write, _reset_accounting) are bracketed by
        # explicit sync/reload pairs.
        clock = card.clock
        busy = card.busy_until
        e_read = self.e_read
        e_write = self.e_write
        e_idle = self.e_idle
        n_reads = card.reads
        n_writes = card.writes
        bytes_read = card.bytes_read
        bytes_written = card.bytes_written
        dev_lat = self.device_latency_s
        clean_lat = self.cleaning_latency_s
        ws = card.write_stall_s
        # Write-head state is localized the same way (``card._write_head``
        # itself always stays correct; only the counters are batched).
        # Every bracketed call below flushes the counters first, because
        # victim scoring reads them.
        whead = card._write_head
        if whead is not None:
            windex = whead.index
            wlive = whead.live
            wfree = whead.free_blocks
        else:
            windex = -1
            wlive = None
            wfree = 0
        wbatch = 0
        wlast = 0.0

        # DRAM-hit reads never reach the device; their only effect is the
        # idle/cleaning advance to their op time, which defers losslessly
        # to the next device-touching op (same budget, same clock).  Skip
        # them wholesale: their response is just the DRAM wait.
        if plan is not None:
            skip = (compiled.op_codes == READ) & (plan.miss_counts == 0)
            # A hit read's reference response is (t + wait) - t, not wait:
            # the round trip through absolute time is observable noise.
            resp = np.where(skip, (compiled.time + wait) - compiled.time, 0.0).tolist()
            indices = np.flatnonzero(~skip).tolist()
        else:
            resp = [0.0] * compiled.n_ops
            indices = range(compiled.n_ops)
        # Reference clock at the warm reset: every op advances the device
        # to its time, so catch up over any skipped warm ops first.
        boundary_t = times[warm_count - 1] if warm_count > 0 else None
        zeroed = warm_count == 0

        # The shared advance-to-op-time happens inside each branch: reads
        # and writes jump straight to their service start (>= t, so the
        # merged advance covers the same span with the same budget).
        for i in indices:
            if not zeroed and i >= warm_count:
                if boundary_t > clock:
                    if whead is not None:
                        whead.free_blocks = wfree
                        if wbatch:
                            live_n[windex] += wbatch
                            free_n[windex] -= wbatch
                            whead.last_write_time = wlast
                            wbatch = 0
                    card.clock = clock
                    self.e_idle = e_idle
                    self._advance(boundary_t)
                    clock = card.clock
                    whead = card._write_head
                    if whead is not None:
                        windex = whead.index
                        wlive = whead.live
                        wfree = whead.free_blocks
                self._reset_accounting()
                e_read = e_write = e_idle = 0.0
                n_reads = n_writes = 0
                bytes_read = bytes_written = 0
                dev_lat = clean_lat = ws = 0.0
                zeroed = True
            t = times[i]
            kind = kinds[i]
            if kind == READ:
                dev = dev_counts[i]
                w = waits[i]
                if dev:
                    size = dev * bb
                    a = t + w
                    start = a if a > busy else busy
                    if start > clock:
                        if card._job is None and len(erased) > reserve:
                            e_idle += idle_w * (start - clock)
                        else:
                            if whead is not None:
                                whead.free_blocks = wfree
                                if wbatch:
                                    live_n[windex] += wbatch
                                    free_n[windex] -= wbatch
                                    whead.last_write_time = wlast
                                    wbatch = 0
                            card.clock = clock
                            self.e_idle = e_idle
                            self._advance(start)
                            clock = card.clock
                            e_idle = self.e_idle
                            whead = card._write_head
                            if whead is not None:
                                windex = whead.index
                                wlive = whead.live
                                wfree = whead.free_blocks
                    duration = read_latency + size / read_bw
                    e_read += active_w * duration
                    n_reads += 1
                    bytes_read += size
                    completion = start + duration
                    # Mirror the reference response expression bit-for-bit:
                    # the queue wait is clipped out of the completion, and
                    # the response is completion minus issue time (the
                    # subtraction's cancellation noise is part of the
                    # reference's observable output).
                    qw = busy - a
                    busy = completion
                    clock = completion
                    if qw > 0.0:
                        over = completion - a
                        completion -= qw if qw < over else over
                    resp[i] = completion - t
                    dev_lat += completion - a
                else:
                    if t > clock:
                        if card._job is None and len(erased) > reserve:
                            e_idle += idle_w * (t - clock)
                            clock = t
                        else:
                            if whead is not None:
                                whead.free_blocks = wfree
                                if wbatch:
                                    live_n[windex] += wbatch
                                    free_n[windex] -= wbatch
                                    whead.last_write_time = wlast
                                    wbatch = 0
                            card.clock = clock
                            self.e_idle = e_idle
                            self._advance(t)
                            clock = card.clock
                            e_idle = self.e_idle
                            whead = card._write_head
                            if whead is not None:
                                windex = whead.index
                                wlive = whead.live
                                wfree = whead.free_blocks
                    resp[i] = w
            elif kind == WRITE:
                w = waits[i]
                a = t + w
                start = a if a > busy else busy
                if start > clock:
                    if card._job is None and len(erased) > reserve:
                        e_idle += idle_w * (start - clock)
                        clock = start
                    else:
                        if whead is not None:
                            whead.free_blocks = wfree
                            if wbatch:
                                live_n[windex] += wbatch
                                free_n[windex] -= wbatch
                                whead.last_write_time = wlast
                                wbatch = 0
                        card.clock = clock
                        self.e_idle = e_idle
                        self._advance(start)
                        clock = card.clock
                        e_idle = self.e_idle
                        whead = card._write_head
                        if whead is not None:
                            windex = whead.index
                            wlive = whead.live
                            wfree = whead.free_blocks
                now = start
                stall_before = ws
                for logical in all_blocks[i]:
                    old_index = smap.pop(logical, None)
                    if old_index is not None:
                        old = segments[old_index]
                        old.live.remove(logical)
                        live_n[old_index] -= 1
                        old.dead_blocks += 1
                    if whead is None or wfree == 0:
                        if whead is not None:
                            whead.free_blocks = wfree
                            if wbatch:
                                live_n[windex] += wbatch
                                free_n[windex] -= wbatch
                                whead.last_write_time = wlast
                                wbatch = 0
                        card.write_stall_s = ws
                        now = self._ensure_erased_for_write(now)
                        ws = card.write_stall_s
                        whead = segments[erased.popleft()]
                        card._write_head = whead
                        windex = whead.index
                        wlive = whead.live
                        wfree = whead.free_blocks
                    wfree -= 1
                    wlive.add(logical)
                    wlast = now
                    smap[logical] = windex
                    wbatch += 1
                    e_write += write_energy
                    if len(erased) <= reserve and card._job is None:
                        whead.free_blocks = wfree
                        if wbatch:
                            live_n[windex] += wbatch
                            free_n[windex] -= wbatch
                            whead.last_write_time = wlast
                            wbatch = 0
                        self._start_job(now)
                        whead = card._write_head
                        if whead is not None:
                            windex = whead.index
                            wlive = whead.live
                            wfree = whead.free_blocks
                    now += block_write_s
                n_writes += 1
                bytes_written += sizes[i]
                completion = now
                qw = busy - a
                clock = now
                busy = now
                if qw > 0.0:
                    over = completion - a
                    completion -= qw if qw < over else over
                resp[i] = completion - t
                stall = ws - stall_before
                dev_lat += (completion - a) - stall
                clean_lat += stall
            else:  # DELETE
                if t > clock:
                    if whead is not None:
                        whead.free_blocks = wfree
                        if wbatch:
                            live_n[windex] += wbatch
                            free_n[windex] -= wbatch
                            whead.last_write_time = wlast
                            wbatch = 0
                    card.clock = clock
                    self.e_idle = e_idle
                    self._advance(t)
                    clock = card.clock
                    e_idle = self.e_idle
                    whead = card._write_head
                    if whead is not None:
                        windex = whead.index
                        wlive = whead.live
                        wfree = whead.free_blocks
                for logical in all_blocks[i]:
                    index = smap.pop(logical, None)
                    if index is not None:
                        segment = segments[index]
                        segment.live.remove(logical)
                        live_n[index] -= 1
                        segment.dead_blocks += 1

        if whead is not None:
            whead.free_blocks = wfree
            if wbatch:
                live_n[windex] += wbatch
                free_n[windex] -= wbatch
                whead.last_write_time = wlast
        card.clock = clock
        card.busy_until = busy
        self.e_read = e_read
        self.e_write = e_write
        self.e_idle = e_idle
        card.reads = n_reads
        card.writes = n_writes
        card.bytes_read = bytes_read
        card.bytes_written = bytes_written
        self.device_latency_s = dev_lat
        self.cleaning_latency_s = clean_lat
        card.write_stall_s = ws

        if not zeroed:
            # Every measured op was a skipped DRAM hit: emulate the warm
            # reset the reference performs at the boundary op.
            if boundary_t > card.clock:
                self._advance(boundary_t)
            self._reset_accounting()

        frontier = card.busy_until if card.busy_until > card.clock else card.clock
        last_t = times[-1] if compiled.n_ops else 0.0
        end_time = max(trace_duration, frontier, last_t)
        self._advance(end_time)
        return self._outcome(np.asarray(resp), end_time)

    def _reset_accounting(self) -> None:
        self.card.reset_accounting()
        self.e_read = self.e_write = self.e_clean = self.e_idle = 0.0
        self.device_latency_s = 0.0
        self.cleaning_latency_s = 0.0

    def _outcome(self, resp: np.ndarray, end_time: float) -> dict:
        card = self.card
        buckets = {}
        if self.e_read:
            buckets["read"] = self.e_read
        if self.e_write:
            buckets["write"] = self.e_write
        if self.e_clean:
            buckets["clean"] = self.e_clean
        if self.e_idle:
            buckets["idle"] = self.e_idle
        stats = card.stats()
        stats["energy_j"] = self.e_read + self.e_write + self.e_clean + self.e_idle
        return {
            "responses": resp,
            "device_buckets": buckets,
            "device_stats": stats,
            "device_latency_s": self.device_latency_s,
            "cleaning_latency_s": self.cleaning_latency_s,
            "cleaning_energy_j": self.e_clean,
            "cleaning_stall_s": card.write_stall_s,
            "end_time": end_time,
        }
