"""Vectorized magnetic-disk kernel with scalar spin-down episodes.

While the disk is spinning and the SRAM write buffer is empty — the state
the disk spends almost all of its time in — the per-op work is closed-form:

* a DRAM-missing read or a buffer-bypassing write is one device access
  arriving at ``t + dram_wait``;
* an absorbed write costs its SRAM wait in the foreground and drains
  immediately as a background flush arriving at ``t`` (write-behind keeps
  the buffer empty while the platters spin);
* seeks depend only on consecutive access file ids, and completions follow
  the Lindley recurrence ``C_j = max(a_j, C_{j-1}) + d_j``, solved in
  closed form with a cumulative sum and a running maximum.

Each scan commits its closed form into the hierarchy's own
:class:`~repro.devices.disk.MagneticDisk`: clocks, seek locality, op and
byte counters, and the ``read``/``write``/``idle`` energy buckets.

The spin-down state machine breaks that closed form, so the kernel scans
for the first operation whose processing would cross the idle deadline
(strictly: ``effective_time > last_completion + timeout``, matching
``MagneticDisk.advance``) and hands control to a scalar *episode*.  The
episode runs each operation through the disk's own ``advance``/``read``/
``write`` and the hierarchy's
:class:`~repro.cache.sram_buffer.SramWriteBuffer`, routed as
:class:`~repro.core.layers.SramLayer` routes it — partial spin-downs
waited out, spin-ups, sync flushes, buffered-read hits — until the disk
is spinning with an empty buffer again, then resumes the vector scan.  So
the disk and the buffer are the kernel's only device state, and a run
leaves them as the event path does: the buffer's contents and its
absorbed-write and flush counters (each scan counts its absorbed writes,
which drain at once to the spinning disk).  The buffer's clock and meter
are not driven; ``_assemble`` computes SRAM energy in closed form.  The
scan's trigger test is conservative: a false positive merely runs a few
ops through the (exact) scalar path; false negatives cannot occur because
arrivals only enter the test, never the 1e-12 loop guard.

Operations are processed in chunks (split at the warm boundary) so a
trace with many spin-down episodes rescans at most one chunk per episode.
"""

from __future__ import annotations

import numpy as np

from repro.core.request import FLUSH_FILE_ID
from repro.devices.disk import SpindleState
from repro.traces.trace import READ, WRITE

_MIN_CHUNK = 128
_MAX_CHUNK = 4096
_NO_FILE = -(1 << 60)  # stands in for last_file=None (never equals a real id)
#: Energy buckets in the order results report them.
_BUCKETS = ("idle", "spin_down", "sleep", "spin_up", "read", "write")


def _lindley(arrivals: np.ndarray, durations: np.ndarray, c_entry: float) -> np.ndarray:
    """FIFO completions with an initial server frontier ``c_entry``."""
    if not len(arrivals):
        return arrivals
    eff = arrivals.copy()
    if c_entry > eff[0]:
        eff[0] = c_entry
    total = np.cumsum(durations)
    return total + np.maximum.accumulate(eff - (total - durations))


class DiskKernel:
    """One magnetic-disk simulation driven from compiled arrays.

    ``device`` and ``sram`` are the freshly built disk and SRAM buffer
    (or None) of the hierarchy; the run drives them in place.
    """

    def __init__(self, device, sram, dram_plan, block_bytes: int) -> None:
        self.disk = device
        self.sram = sram
        self.dram_plan = dram_plan
        self.block_bytes = block_bytes
        # Per-layer latency attribution over the measured window.
        self.device_latency_s = 0.0
        self.sram_wait_s = 0.0

    # -- scalar episode ------------------------------------------------------

    def _foreground(self, arrival: float, size: int, blocks, file_id: int,
                    read: bool) -> float:
        """A foreground device access: the completion with its queue wait
        clipped out, as ``DeviceLayer`` reports it."""
        disk = self.disk
        queue_wait = max(0.0, disk.busy_until - arrival)
        if read:
            completion = disk.read(arrival, size, blocks, file_id)
        else:
            completion = disk.write(arrival, size, blocks, file_id)
        adjusted = completion - min(queue_wait, max(0.0, completion - arrival))
        self.device_latency_s += adjusted - arrival
        return adjusted

    def _background_flush(self, file_id: int) -> None:
        """Drain the buffer behind an access that already happened, to a
        spinning disk only."""
        sram = self.sram
        disk = self.disk
        if (sram is None or not sram.dirty_count
                or disk.state is not SpindleState.SPINNING):
            return
        blocks = sram.drain()
        sram.background_flushes += 1
        start = disk.busy_until if disk.busy_until > disk.clock else disk.clock
        disk.write(start, len(blocks) * self.block_bytes, blocks, file_id)

    def _episode_op(self, i: int, compiled, wait: np.ndarray,
                    resp: np.ndarray) -> None:
        disk = self.disk
        sram = self.sram
        bb = self.block_bytes
        t = float(compiled.time[i])
        disk.advance(t)
        kind = compiled.op_codes[i]
        now = t + float(wait[i])
        if kind == READ:
            if self.dram_plan is not None:
                miss = self.dram_plan.miss_blocks(i)
            else:
                miss = compiled.blocks[i]
            if miss:
                if sram is not None:
                    device_blocks = [b for b in miss if not sram.contains(b)]
                    sw = sram.access_time((len(miss) - len(device_blocks)) * bb)
                    if sw:
                        now += sw
                        self.sram_wait_s += sw
                else:
                    device_blocks = miss
                if device_blocks:
                    now = self._foreground(
                        now, len(device_blocks) * bb, device_blocks,
                        int(compiled.file_id[i]), read=True,
                    )
                    self._background_flush(FLUSH_FILE_ID)
            resp[i] = now - t
        elif kind == WRITE:
            blocks = compiled.blocks[i]
            size = int(compiled.size[i])
            if sram is not None and sram.can_ever_fit(blocks):
                if not sram.fits(blocks):
                    flush = sram.drain()
                    sram.sync_flushes += 1
                    completion = disk.write(
                        now, len(flush) * bb, flush, FLUSH_FILE_ID
                    )
                    self.device_latency_s += completion - now
                    now = completion
                sram.add(blocks)
                sw = sram.access_time(size)
                if sw:
                    now += sw
                    self.sram_wait_s += sw
                resp[i] = now - t
                self._background_flush(int(compiled.file_id[i]))
            else:
                if sram is not None:
                    sram.invalidate(blocks)
                resp[i] = self._foreground(
                    now, size, blocks, int(compiled.file_id[i]), read=False
                ) - t
                self._background_flush(FLUSH_FILE_ID)
        elif sram is not None:  # DELETE
            sram.invalidate(compiled.blocks[i])

    # -- the run loop --------------------------------------------------------

    def run(self, compiled, wait: np.ndarray, warm_count: int,
            trace_duration: float) -> dict:
        disk = self.disk
        spec = disk.spec
        sram = self.sram
        sram_cap = sram.capacity_blocks if sram is not None else 0
        n = compiled.n_ops
        bb = self.block_bytes
        times = compiled.time
        kinds = compiled.op_codes
        is_read = kinds == READ
        is_write = kinds == WRITE
        if self.dram_plan is not None:
            dev_read_blocks = self.dram_plan.miss_counts.astype(np.int64)
        else:
            dev_read_blocks = compiled.n_blocks
        read_bytes = np.where(is_read, dev_read_blocks * bb, 0)
        dev_read = is_read & (read_bytes > 0)
        if sram_cap:
            absorbed = is_write & (compiled.n_blocks <= sram_cap)
        else:
            absorbed = np.zeros(n, dtype=bool)
        has_access = dev_read | is_write
        acc_size = np.where(is_read, read_bytes, compiled.size).astype(np.float64)
        arrival = np.where(absorbed, times, times + wait)
        sw = np.zeros(n, dtype=np.float64)
        if sram_cap:
            np.divide(compiled.size, sram.spec.bandwidth_bps, out=sw, where=absorbed)
            sw[absorbed] += sram.spec.access_latency_s
        fixed_s = spec.rotation_s + spec.controller_s
        base_dur = np.where(
            is_read,
            fixed_s + acc_size / spec.read_bandwidth_bps,
            fixed_s + acc_size / spec.write_bandwidth_bps,
        )
        resp = np.zeros(n, dtype=np.float64)
        # Foreground formulas that never depend on queueing, filled up
        # front; access ops are overwritten chunk by chunk.
        resp[is_read] = (times[is_read] + wait[is_read]) - times[is_read]
        resp[absorbed] = ((times[absorbed] + wait[absorbed]) + sw[absorbed]) - times[absorbed]

        zeroed = warm_count == 0
        i = 0
        # The scan window adapts to the violation density: a trace that
        # sleeps every few dozen ops stays near _MIN_CHUNK (so each scan
        # wastes little work past its violation), a trace that never
        # sleeps grows to _MAX_CHUNK and amortises the per-scan overhead.
        chunk = _MIN_CHUNK
        while i < n:
            if not zeroed and i >= warm_count:
                self._reset_accounting()
                zeroed = True
            end = min(i + chunk, n)
            if i < warm_count < end:
                end = warm_count
            i = self._scan_chunk(
                i, end, compiled, wait, has_access, arrival, acc_size, base_dur,
                dev_read, absorbed, sw, resp, measured=i >= warm_count,
            )
            if i < end:
                # First op whose processing crosses the idle deadline: run
                # the devices op by op until spinning + empty again.
                chunk = _MIN_CHUNK
                while i < n:
                    if not zeroed and i >= warm_count:
                        self._reset_accounting()
                        zeroed = True
                    self._episode_op(i, compiled, wait, resp)
                    i += 1
                    if disk.state is SpindleState.SPINNING and (
                        sram is None or not sram.dirty_count
                    ):
                        break
            else:
                chunk = min(chunk * 2, _MAX_CHUNK)

        frontier = disk.busy_until if disk.busy_until > disk.clock else disk.clock
        last_t = float(times[-1]) if n else 0.0
        end_time = max(trace_duration, frontier, last_t)
        disk.advance(end_time)
        return self._outcome(resp, end_time)

    def _scan_chunk(self, s: int, e: int, compiled, wait, has_access,
                    arrival, acc_size, base_dur, dev_read, absorbed,
                    sw, resp, measured: bool) -> int:
        """Vector-process awake-mode ops in ``[s, e)`` and commit them to
        the disk; returns the first unprocessed index (== ``e`` when the
        whole chunk stayed awake)."""
        disk = self.disk
        spec = disk.spec
        times = compiled.time
        acc_mask = has_access[s:e]
        acc_pos = np.flatnonzero(acc_mask)
        timeout = disk.spin_down_timeout_s
        c_entry = disk.busy_until

        if len(acc_pos):
            idx = acc_pos + s
            a_seq = arrival[idx]
            fid_seq = compiled.file_id[idx]
            prev_fid = np.empty_like(fid_seq)
            last_file = disk._last_file
            prev_fid[0] = _NO_FILE if last_file is None else last_file
            prev_fid[1:] = fid_seq[:-1]
            dur_seq = base_dur[idx] + np.where(fid_seq != prev_fid, spec.seek_s, 0.0)
            completions = _lindley(a_seq, dur_seq, c_entry)
            before = np.cumsum(acc_mask) - acc_mask
            c_prev = np.where(
                before > 0, completions[np.maximum(before - 1, 0)], c_entry
            )
        else:
            completions = np.empty(0)
            dur_seq = completions
            a_seq = completions
            c_prev = np.full(e - s, c_entry)

        if timeout is not None:
            eff = np.where(acc_mask, arrival[s:e], times[s:e])
            viol = np.flatnonzero(eff > c_prev + timeout)
            v = s + int(viol[0]) if len(viol) else e
        else:
            v = e
        if v == s:
            return s

        # Commit ops [s, v).
        k = int(np.searchsorted(acc_pos, v - s))  # accesses strictly before v
        if k:
            local = acc_pos[:k] + s
            prev_c = np.empty(k)
            prev_c[0] = c_entry
            prev_c[1:] = completions[:k - 1]
            queue_wait = np.maximum(0.0, prev_c - a_seq[:k])
            done = completions[:k]
            adjusted = done - np.minimum(
                queue_wait, np.maximum(0.0, done - a_seq[:k])
            )
            fg = ~absorbed[local]  # read misses and bypass writes
            resp[local[fg]] = adjusted[fg] - times[local[fg]]

        # Each absorbed write lands in the empty buffer and, the disk
        # spinning, drains at once as a background flush.
        sram = self.sram
        if sram is not None:
            n_absorbed = int(absorbed[s:v].sum())
            sram.absorbed_writes += n_absorbed
            sram.background_flushes += n_absorbed

        clock_entry = disk.clock
        if k:
            disk.busy_until = float(completions[k - 1])
            disk._idle_since = disk.busy_until
            disk._last_file = int(compiled.file_id[acc_pos[k - 1] + s])
        clock_exit = max(disk.clock, disk.busy_until, float(times[v - 1]))
        disk.clock = clock_exit

        if measured:
            charge = disk.energy.charge
            if k:
                m_read = dev_read[local]
                m_write = ~m_read
                d = dur_seq[:k]
                read_time = float(d[m_read].sum())
                write_time = float(d[m_write].sum())
                charge("read", spec.active_power_w, read_time)
                charge("write", spec.active_power_w, write_time)
                disk.reads += int(m_read.sum())
                disk.writes += int(m_write.sum())
                disk.bytes_read += int(acc_size[local[m_read]].sum())
                disk.bytes_written += int(acc_size[local[m_write]].sum())
                self.device_latency_s += float(d[fg].sum())
                busy_time = read_time + write_time
            else:
                busy_time = 0.0
            charge("idle", spec.idle_power_w, max(
                0.0, (clock_exit - clock_entry) - busy_time
            ))
            self.sram_wait_s += float(sw[s:v][absorbed[s:v]].sum())
        return v

    # -- accounting ----------------------------------------------------------

    def _reset_accounting(self) -> None:
        self.disk.reset_accounting()
        if self.sram is not None:
            self.sram.reset_accounting()
        self.device_latency_s = 0.0
        self.sram_wait_s = 0.0

    def _outcome(self, resp: np.ndarray, end_time: float) -> dict:
        disk = self.disk
        # A fixed bucket order, summed in that order: the meter's own
        # total sums in first-charge order, which differs run to run.
        buckets = {}
        total = 0.0
        for name in _BUCKETS:
            value = disk.energy.bucket_j(name)
            if value:
                buckets[name] = value
            total += value
        stats = disk.stats()
        stats["energy_j"] = total
        return {
            "responses": resp,
            "device_buckets": buckets,
            "device_stats": stats,
            "device_latency_s": self.device_latency_s,
            "sram_wait_s": self.sram_wait_s,
            "cleaning_latency_s": 0.0,
            "cleaning_energy_j": 0.0,
            "cleaning_stall_s": 0.0,
            "end_time": end_time,
        }
