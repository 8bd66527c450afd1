"""Lean flash-card kernel: the card's own cleaner, without the request path.

The card's timing is sequential and data-dependent (out-of-place writes,
victim selection, background cleaning consuming idle budget), so it cannot
be advanced as closed-form array math the way the disk and flash disk can.
What the vector path removes instead is everything *around* the device:
the request/response pool, hook bus, per-request attribution, and the
EnergyMeter's per-charge dict updates become four float accumulators and
one tight loop.

The kernel runs on the hierarchy's freshly built, preloaded card and keeps
all of its state there: the ``segments``, logical map and erased stock,
the write and cleaner heads, the in-flight cleaning job, both clocks and
the op, cleaning and stall counters.  Each write, copy and delete updates
its segments per block as ``FlashCard`` does (``live``, ``free_blocks``,
``dead_blocks``, ``last_write_time``), so the card's own
``_start_job`` and ``_write_head_may_pop`` choose victims and reserve the
last erased segment through ``card.policy``: any cleaning policy runs
here, and after a run the card is in the state the event path leaves it
in.

What stays in the kernel mirrors ``FlashCard.write``/``_write_block``,
``_job_step``, ``advance`` and ``_ensure_erased_for_write`` expression for
expression, but charges energy to four floats and two latency sums
instead of the card's meter: copy energy is one multiply per job step
where the card charges per block, a reassociation the kernel gate of
:mod:`repro.contract` licenses.  Running the card's own methods would
change those vector bits.

The kernel mutates the card's :class:`~repro.flash.segment.Segment`
objects through the same insert/remove sequences the card does.  That
matters because a cleaning job snapshots ``deque(victim.live)`` — a set
whose iteration order depends on its mutation history — so any shortcut
that reordered set operations would reorder cleaning copies and diverge
from the event path.
"""

from __future__ import annotations

import numpy as np

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
        self.block_write_s = card.block_write_s
        self.block_copy_s = card.block_copy_s
        self.reserve = card.reserve_segments
        self.segments = card.segments
        self.smap = card._map
        self.erased = card._erased

        # Measured-window accounting (zeroed at the warm boundary).
        self.e_read = 0.0
        self.e_write = 0.0
        self.e_clean = 0.0
        self.e_idle = 0.0
        self.device_latency_s = 0.0
        self.cleaning_latency_s = 0.0

    # -- cleaning (mirrors FlashCard._job_step/advance) --------------------

    def _job_step(self, now: float, budget: float) -> tuple[float, float]:
        card = self.card
        job = card._job
        victim = job.victim
        queue = job.copy_queue
        live = victim.live
        block_copy_s = self.block_copy_s
        segments = self.segments
        smap = self.smap
        erased = self.erased
        head = card._clean_head
        progress = job.copy_progress_s
        consumed = 0.0
        copied = 0
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
            if head is None or not head.free_blocks:
                head = segments[erased.popleft()]
                card._clean_head = head
            head.free_blocks -= 1
            head.live.add(logical)
            head.last_write_time = now + consumed
            smap[logical] = head.index
            copied += 1
        job.copy_progress_s = progress
        # Copy energy in one multiply: every second consumed inside the
        # loop is copy work at active power, and energy is a tolerance-
        # covered sum, so reassociation is licensed.
        self.e_clean += self.active_w * consumed
        if copied:
            victim.dead_blocks += copied
            card.blocks_copied += copied
        if not queue and budget > 0:
            step = min(budget, job.erase_remaining_s)
            self.e_clean += self.erase_w * step
            job.erase_remaining_s -= step
            consumed += step
            if job.erase_remaining_s <= 1e-12:
                victim.erase()
                erased.append(victim.index)
                card.segments_cleaned += 1
                card._job = None
        return consumed, now + consumed

    def _advance(self, until: float) -> None:
        card = self.card
        clock = card.clock
        if until <= clock:
            return
        budget = until - clock
        # Fast path: no job running and none startable means the whole
        # span is idle (identical arithmetic to falling out of the loop
        # below on its first test).
        if card._job is None and len(self.erased) > self.reserve:
            self.e_idle += self.idle_w * budget
            card.clock = until
            return
        while budget > 1e-12:
            if card._job is None:
                if not card._needs_cleaning() or not card._start_job(clock):
                    break
            consumed, _ = self._job_step(clock, budget)
            clock += consumed
            budget -= consumed
            if consumed <= 0:
                break
        if budget > 0:
            self.e_idle += self.idle_w * budget
        card.clock = until

    # -- write path (mirrors FlashCard._ensure_erased_for_write) ------------

    def _ensure_erased_for_write(self, now: float) -> float:
        card = self.card
        if card._write_head_may_pop(now):
            return now
        stall_start = now
        while not card._write_head_may_pop(now):
            if card._job is None and not card._start_job(now):
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
        block_write_s = self.block_write_s
        write_energy = active_w * block_write_s
        reserve = self.reserve

        # Hot accounting state lives in locals for the duration of the
        # loop; the calls that read or write it (_advance,
        # _reset_accounting) are bracketed by explicit sync/reload pairs.
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

        for i in indices:
            if not zeroed and i >= warm_count:
                if boundary_t > clock:
                    card.clock = clock
                    self.e_idle = e_idle
                    self._advance(boundary_t)
                    clock = card.clock
                self._reset_accounting()
                e_read = e_write = e_idle = 0.0
                n_reads = n_writes = 0
                bytes_read = bytes_written = 0
                dev_lat = clean_lat = 0.0
                zeroed = True
            t = times[i]
            kind = kinds[i]
            w = waits[i]
            # Advance to the op's service start: reads and writes that
            # reach the device jump straight there (>= t, so the merged
            # advance covers the same span with the same budget).
            dev = kind == WRITE or (kind == READ and dev_counts[i])
            if dev:
                a = t + w
                target = a if a > busy else busy
            else:
                target = t
            if target > clock:
                if card._job is None and len(erased) > reserve:
                    e_idle += idle_w * (target - clock)
                else:
                    card.clock = clock
                    self.e_idle = e_idle
                    self._advance(target)
                    e_idle = self.e_idle
                clock = target
            if kind == READ:
                if not dev:
                    resp[i] = w
                    continue
                size = dev_counts[i] * bb
                duration = read_latency + size / read_bw
                e_read += active_w * duration
                n_reads += 1
                bytes_read += size
                completion = target + duration
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
            elif kind == WRITE:
                now = target
                stall_before = card.write_stall_s
                head = card._write_head
                for logical in all_blocks[i]:
                    old_index = smap.pop(logical, None)
                    if old_index is not None:
                        old = segments[old_index]
                        old.live.remove(logical)
                        old.dead_blocks += 1
                    if head is None or not head.free_blocks:
                        now = self._ensure_erased_for_write(now)
                        head = segments[erased.popleft()]
                        card._write_head = head
                    head.free_blocks -= 1
                    head.live.add(logical)
                    head.last_write_time = now
                    smap[logical] = head.index
                    e_write += write_energy
                    if len(erased) <= reserve and card._job is None:
                        card._start_job(now)
                        head = card._write_head
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
                stall = card.write_stall_s - stall_before
                dev_lat += (completion - a) - stall
                clean_lat += stall
            else:  # DELETE
                for logical in all_blocks[i]:
                    index = smap.pop(logical, None)
                    if index is not None:
                        segment = segments[index]
                        segment.live.remove(logical)
                        segment.dead_blocks += 1

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
