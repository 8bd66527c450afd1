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

The spin-down state machine breaks that closed form, so the kernel scans
for the first operation whose processing would cross the idle deadline
(strictly: ``effective_time > last_completion + timeout``, matching
``MagneticDisk.advance``) and hands control to a scalar *episode* that
replicates the event path's per-op code expression-for-expression — partial
spin-downs waited out, spin-ups, sync flushes, buffered-read hits — until
the disk is spinning with an empty buffer again, then resumes the vector
scan.  The scan's trigger test is conservative: a false positive merely
runs a few ops through the (exact) scalar path; false negatives cannot
occur because arrivals only enter the test, never the 1e-12 loop guard.

Operations are processed in chunks (split at the warm boundary) so a
trace with many spin-down episodes rescans at most one chunk per episode.
"""

from __future__ import annotations

import numpy as np

from repro.core.request import FLUSH_FILE_ID
from repro.traces.trace import READ, WRITE

_SPINNING, _SPINNING_DOWN, _SLEEPING = 0, 1, 2
_MIN_CHUNK = 128
_MAX_CHUNK = 4096
_NO_FILE = -(1 << 60)  # stands in for last_file=None (never equals a real id)


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
    """One magnetic-disk simulation driven from compiled arrays."""

    def __init__(self, device, sram, dram_plan, block_bytes: int) -> None:
        spec = device.spec
        self.spec = spec
        self.block_bytes = block_bytes
        self.dram_plan = dram_plan
        self.timeout: float | None = device.spin_down_timeout_s
        self.seek_s = spec.seek_s
        self.rotation_s = spec.rotation_s
        self.controller_s = spec.controller_s
        self.fixed_s = spec.rotation_s + spec.controller_s
        self.read_bw = spec.read_bandwidth_bps
        self.write_bw = spec.write_bandwidth_bps
        self.active_w = spec.active_power_w
        self.idle_w = spec.idle_power_w
        self.spin_down_s = spec.spin_down_s
        self.spin_down_w = spec.spin_down_power_w
        self.sleep_w = spec.sleep_power_w
        self.spin_up_s = spec.spin_up_s
        self.spin_up_w = spec.spin_up_power_w

        if sram is not None and sram.enabled:
            self.sram_cap = sram.capacity_blocks
            self.sram_lat = sram.spec.access_latency_s
            self.sram_bw = sram.spec.bandwidth_bps
        else:
            self.sram_cap = 0
            self.sram_lat = 0.0
            self.sram_bw = 0.0
        self.buffer: set[int] = set()

        # Device state (mirrors MagneticDisk's fields; disk starts spinning).
        self.spindle = _SPINNING
        self.clock = 0.0
        self.busy = 0.0
        self.idle_since = 0.0
        self.spin_down_end = 0.0
        self.last_file: int | None = None

        # Measured-window accounting.
        self.e_idle = 0.0
        self.e_spin_down = 0.0
        self.e_sleep = 0.0
        self.e_spin_up = 0.0
        self.e_read = 0.0
        self.e_write = 0.0
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.spin_ups = 0
        self.spin_downs = 0
        self.device_latency_s = 0.0
        self.sram_wait_s = 0.0

    # -- scalar device replica (episodes + tail) ----------------------------

    def _adv(self, until: float) -> None:
        """``MagneticDisk.advance``, expression for expression."""
        clock = self.clock
        timeout = self.timeout
        while clock < until - 1e-12:
            if self.spindle == _SPINNING:
                if timeout is None:
                    self.e_idle += self.idle_w * (until - clock)
                    clock = until
                    continue
                deadline = self.idle_since + timeout
                if deadline >= until:
                    self.e_idle += self.idle_w * (until - clock)
                    clock = until
                    continue
                if deadline > clock:
                    self.e_idle += self.idle_w * (deadline - clock)
                    clock = deadline
                self.spindle = _SPINNING_DOWN
                self.spin_down_end = clock + self.spin_down_s
                self.spin_downs += 1
            elif self.spindle == _SPINNING_DOWN:
                end = min(until, self.spin_down_end)
                self.e_spin_down += self.spin_down_w * (end - clock)
                clock = end
                if clock >= self.spin_down_end - 1e-12:
                    self.spindle = _SLEEPING
            else:
                self.e_sleep += self.sleep_w * (until - clock)
                clock = until
        self.clock = clock

    def _access(self, at: float, size: int, file_id: int, is_read: bool) -> float:
        """``MagneticDisk._access``: queue, wake if needed, transfer."""
        start = at if at > self.busy else self.busy
        self._adv(start)
        now = start
        if self.spindle == _SPINNING_DOWN:
            wait = self.spin_down_end - now
            self.e_spin_down += self.spin_down_w * wait
            now = self.spin_down_end
            self.spindle = _SLEEPING
        if self.spindle == _SLEEPING:
            self.e_spin_up += self.spin_up_w * self.spin_up_s
            now += self.spin_up_s
            self.spin_ups += 1
            self.spindle = _SPINNING
        seek = 0.0 if file_id == self.last_file else self.seek_s
        if is_read:
            duration = (seek + self.rotation_s + self.controller_s
                        + size / self.read_bw)
            self.e_read += self.active_w * duration
            self.reads += 1
            self.bytes_read += size
        else:
            duration = (seek + self.rotation_s + self.controller_s
                        + size / self.write_bw)
            self.e_write += self.active_w * duration
            self.writes += 1
            self.bytes_written += size
        now += duration
        self.clock = now
        self.busy = now
        self.idle_since = now
        self.last_file = file_id
        return now

    def _sram_wait(self, nbytes: int) -> float:
        if nbytes <= 0 or self.sram_cap == 0:
            return 0.0
        return self.sram_lat + nbytes / self.sram_bw

    def _background_flush(self, file_id: int) -> None:
        """Drain the buffer behind an access that already happened."""
        if not self.buffer:
            return
        size = len(self.buffer) * self.block_bytes
        self.buffer.clear()
        start = self.busy if self.busy > self.clock else self.clock
        self._access(start, size, file_id, is_read=False)

    # -- scalar episode ------------------------------------------------------

    def _episode_op(self, i: int, compiled, wait: np.ndarray,
                    resp: np.ndarray) -> None:
        t = float(compiled.time[i])
        self._adv(t)
        kind = compiled.op_codes[i]
        w = float(wait[i])
        if kind == READ:
            if self.dram_plan is not None:
                miss = self.dram_plan.miss_blocks(i)
            else:
                miss = compiled.blocks[i]
            now = t + w
            if miss:
                buffer = self.buffer
                buffered = 0
                device_blocks = 0
                for block in miss:
                    if block in buffer:
                        buffered += 1
                    else:
                        device_blocks += 1
                sw = self._sram_wait(buffered * self.block_bytes)
                if sw:
                    now += sw
                    self.sram_wait_s += sw
                if device_blocks:
                    arrival = now
                    queue_wait = max(0.0, self.busy - arrival)
                    completion = self._access(
                        arrival, device_blocks * self.block_bytes,
                        int(compiled.file_id[i]), is_read=True,
                    )
                    adjusted = completion - min(
                        queue_wait, max(0.0, completion - arrival)
                    )
                    self.device_latency_s += adjusted - arrival
                    now = adjusted
                    self._background_flush(FLUSH_FILE_ID)
            resp[i] = now - t
        elif kind == WRITE:
            blocks = compiled.blocks[i]
            size = int(compiled.size[i])
            now = t + w
            buffer = self.buffer
            if len(blocks) <= self.sram_cap:
                new = sum(1 for b in blocks if b not in buffer)
                if new > self.sram_cap - len(buffer):
                    flush_size = len(buffer) * self.block_bytes
                    buffer.clear()
                    completion = self._access(
                        now, flush_size, FLUSH_FILE_ID, is_read=False
                    )
                    self.device_latency_s += completion - now
                    now = completion
                buffer.update(blocks)
                sw = self._sram_wait(size)
                if sw:
                    now += sw
                    self.sram_wait_s += sw
                resp[i] = now - t
                if self.spindle == _SPINNING:
                    self._background_flush(int(compiled.file_id[i]))
            else:
                for block in blocks:
                    buffer.discard(block)
                arrival = now
                queue_wait = max(0.0, self.busy - arrival)
                completion = self._access(
                    arrival, size, int(compiled.file_id[i]), is_read=False
                )
                adjusted = completion - min(
                    queue_wait, max(0.0, completion - arrival)
                )
                self.device_latency_s += adjusted - arrival
                resp[i] = adjusted - t
                self._background_flush(FLUSH_FILE_ID)
        else:  # DELETE
            buffer = self.buffer
            for block in compiled.blocks[i]:
                buffer.discard(block)

    # -- the run loop --------------------------------------------------------

    def run(self, compiled, wait: np.ndarray, warm_count: int,
            trace_duration: float) -> dict:
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
        if self.sram_cap:
            absorbed = is_write & (compiled.n_blocks <= self.sram_cap)
        else:
            absorbed = np.zeros(n, dtype=bool)
        bypass = is_write & ~absorbed
        has_access = dev_read | is_write
        acc_size = np.where(is_read, read_bytes, compiled.size).astype(np.float64)
        arrival = np.where(absorbed, times, times + wait)
        sw = np.zeros(n, dtype=np.float64)
        if self.sram_cap:
            np.divide(compiled.size, self.sram_bw, out=sw, where=absorbed)
            sw[absorbed] += self.sram_lat
        base_dur = np.where(
            is_read,
            self.fixed_s + acc_size / self.read_bw,
            self.fixed_s + acc_size / self.write_bw,
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
                self._zero()
                zeroed = True
            end = min(i + chunk, n)
            if i < warm_count < end:
                end = warm_count
            i = self._scan_chunk(
                i, end, compiled, wait, has_access, arrival, acc_size, base_dur,
                dev_read, bypass, absorbed, sw, resp,
                measured=i >= warm_count,
            )
            if i < end:
                # First op whose processing crosses the idle deadline:
                # replicate the reference path until spinning + empty again.
                chunk = _MIN_CHUNK
                while i < n:
                    if not zeroed and i >= warm_count:
                        self._zero()
                        zeroed = True
                    self._episode_op(i, compiled, wait, resp)
                    i += 1
                    if self.spindle == _SPINNING and not self.buffer:
                        break
            else:
                chunk = min(chunk * 2, _MAX_CHUNK)

        frontier = self.busy if self.busy > self.clock else self.clock
        last_t = float(times[-1]) if n else 0.0
        end_time = max(trace_duration, frontier, last_t)
        self._adv(end_time)
        return self._outcome(resp, end_time)

    def _scan_chunk(self, s: int, e: int, compiled, wait, has_access,
                    arrival, acc_size, base_dur, dev_read, bypass, absorbed,
                    sw, resp, measured: bool) -> int:
        """Vector-process awake-mode ops in ``[s, e)``; returns the first
        unprocessed index (== ``e`` when the whole chunk stayed awake)."""
        times = compiled.time
        acc_mask = has_access[s:e]
        acc_pos = np.flatnonzero(acc_mask)
        timeout = self.timeout
        c_entry = self.busy

        if len(acc_pos):
            idx = acc_pos + s
            a_seq = arrival[idx]
            fid_seq = compiled.file_id[idx]
            prev_fid = np.empty_like(fid_seq)
            prev_fid[0] = _NO_FILE if self.last_file is None else self.last_file
            prev_fid[1:] = fid_seq[:-1]
            dur_seq = base_dur[idx] + np.where(fid_seq != prev_fid, self.seek_s, 0.0)
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

        clock_entry = self.clock
        if k:
            self.busy = float(completions[k - 1])
            self.idle_since = self.busy
            self.last_file = int(compiled.file_id[acc_pos[k - 1] + s])
        clock_exit = max(self.clock, self.busy, float(times[v - 1]))
        self.clock = clock_exit

        if measured:
            if k:
                m_read = dev_read[local]
                m_write = ~m_read
                d = dur_seq[:k]
                read_time = float(d[m_read].sum())
                write_time = float(d[m_write].sum())
                self.e_read += self.active_w * read_time
                self.e_write += self.active_w * write_time
                self.reads += int(m_read.sum())
                self.writes += int(m_write.sum())
                self.bytes_read += int(acc_size[local[m_read]].sum())
                self.bytes_written += int(acc_size[local[m_write]].sum())
                self.device_latency_s += float(d[fg].sum())
                busy_time = read_time + write_time
            else:
                busy_time = 0.0
            self.e_idle += self.idle_w * max(
                0.0, (clock_exit - clock_entry) - busy_time
            )
            self.sram_wait_s += float(sw[s:v][absorbed[s:v]].sum())
        return v

    # -- accounting ----------------------------------------------------------

    def _zero(self) -> None:
        self.e_idle = self.e_spin_down = self.e_sleep = 0.0
        self.e_spin_up = self.e_read = self.e_write = 0.0
        self.reads = self.writes = 0
        self.bytes_read = self.bytes_written = 0
        self.spin_ups = self.spin_downs = 0
        self.device_latency_s = 0.0
        self.sram_wait_s = 0.0

    def _outcome(self, resp: np.ndarray, end_time: float) -> dict:
        buckets = {}
        for name, value in (
            ("idle", self.e_idle), ("spin_down", self.e_spin_down),
            ("sleep", self.e_sleep), ("spin_up", self.e_spin_up),
            ("read", self.e_read), ("write", self.e_write),
        ):
            if value:
                buckets[name] = value
        total = (self.e_idle + self.e_spin_down + self.e_sleep
                 + self.e_spin_up + self.e_read + self.e_write)
        stats = {
            "reads": self.reads,
            "writes": self.writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "energy_j": total,
            "spin_ups": self.spin_ups,
            "spin_downs": self.spin_downs,
        }
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
