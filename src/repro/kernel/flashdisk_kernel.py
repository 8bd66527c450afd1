"""Vectorized coupled-mode flash-disk kernel.

In coupled mode (SDP5/SDP10: the erase rides inside the write) the flash
disk is timing-stateless: every access costs ``latency + bytes/bandwidth``
regardless of history, and ``advance`` charges pure idle power.  The whole
run therefore collapses into array math:

* each DRAM-missing read and each write becomes one device access with an
  arrival time and a closed-form duration (all computed as array math);
* completions follow the queueing recurrence
  ``C_i = max(a_i, C_{i-1}) + d_i``, evaluated in a three-line scalar loop
  rather than the cumsum closed form: individual responses are compared
  at strict tolerance, so they must reproduce the reference's per-op
  float expressions (``(start + d) - min(queue_wait, ...) - t``) exactly,
  cancellation noise included;
* the sector map's dirty/free pools evolve by per-block arithmetic (a
  short Python loop over write/delete ops only).

The *sums* (energy, busy time) still use vectorized reductions; their
reassociation is what the kernel gate of :mod:`repro.contract` licenses.
"""

from __future__ import annotations

import numpy as np

from repro.traces.trace import DELETE, READ, WRITE


def run_flashdisk(device, compiled, wait: np.ndarray,
                  dram_plan, warm_count: int, trace_duration: float) -> dict:
    """Simulate a coupled-mode flash disk over the compiled arrays.

    ``device`` is a freshly built (preloaded) FlashDisk, read for its spec,
    block geometry and initial sector-pool counts; it is not mutated.
    """
    spec = device.spec
    bb = device.block_bytes
    n = compiled.n_ops

    kinds = compiled.op_codes
    is_read = kinds == READ
    is_write = kinds == WRITE
    if dram_plan is not None:
        dev_read_blocks = dram_plan.miss_counts.astype(np.int64)
    else:
        dev_read_blocks = compiled.n_blocks
    read_bytes = np.where(is_read, dev_read_blocks * bb, 0)
    dev_read = is_read & (read_bytes > 0)
    acc = dev_read | is_write

    durations = np.zeros(n, dtype=np.float64)
    np.divide(read_bytes, spec.read_bandwidth_bps, out=durations, where=dev_read)
    write_sizes = compiled.size
    np.divide(write_sizes, spec.write_bandwidth_bps, out=durations, where=is_write)
    durations[acc] += spec.access_latency_s

    arrivals = compiled.time + wait
    # Base responses: the reference reports a pure-cache op's response as
    # (t + wait) - t, whose cancellation noise is observable output.
    responses = (compiled.time + wait) - compiled.time

    # Queue-free accesses respond in (arrival + d) - t, filled wholesale;
    # the scalar loop below only tracks the busy frontier and rewrites
    # the queued ones.  Both mirror StorageDevice._begin/_finish and the
    # DeviceLayer queue-wait correction expression-for-expression.
    acc_i = np.flatnonzero(acc)
    responses[acc_i] = (arrivals[acc_i] + durations[acc_i]) - compiled.time[acc_i]
    acc_idx = acc_i.tolist()
    t_list = compiled.time[acc_i].tolist()
    a_list = arrivals[acc_i].tolist()
    d_list = durations[acc_i].tolist()
    busy = 0.0
    warm_frontier = 0.0
    seen_boundary = warm_count == 0
    queued: list[tuple[int, float]] = []
    for j, i in enumerate(acc_idx):
        if not seen_boundary and i >= warm_count:
            warm_frontier = busy
            seen_boundary = True
        a = a_list[j]
        d = d_list[j]
        if a > busy:
            busy = a + d
        else:
            qw = busy - a
            completion = busy + d
            over = completion - a
            corrected = completion - (qw if qw < over else over)
            queued.append((i, corrected - t_list[j]))
            busy = completion
    if not seen_boundary:
        warm_frontier = busy
    if queued:
        qi, qv = zip(*queued)
        responses[list(qi)] = qv

    measured = np.arange(n) >= warm_count
    m_read = dev_read & measured
    m_write = is_write & measured
    m_acc = acc & measured

    active_w = spec.active_power_w
    read_j = active_w * float(durations[m_read].sum())
    write_j = active_w * float(durations[m_write].sum())

    # Idle spans the accounting window minus busy time.  The device clock
    # at the warm boundary is the later of the last warm completion and the
    # op time the layers advanced to; measured accesses never start before
    # it (their arrivals are >= t_{wc-1} and they queue behind warm work).
    if warm_count > 0:
        clock_reset = max(warm_frontier, float(compiled.time[warm_count - 1]))
    else:
        clock_reset = 0.0

    last_completion = busy
    last_t = float(compiled.time[-1]) if n else 0.0
    end_time = max(trace_duration, last_completion, last_t)
    busy_measured = float(durations[m_acc].sum())
    idle_j = spec.idle_power_w * max(0.0, (end_time - clock_reset) - busy_measured)

    buckets = {}
    if read_j:
        buckets["read"] = read_j
    if write_j:
        buckets["write"] = write_j
    if idle_j:
        buckets["idle"] = idle_j

    # Sector pools: block-granular arithmetic over writes and deletes.
    # Every trace block is preloaded (mapped), so the initial pool counts
    # come straight off the freshly built device.  Two facts make the
    # final counts (near-)closed-form:
    #
    # * free cells only ever shrink in coupled mode, and every written
    #   block consumes min(spb, free) of them *regardless* of its mapping
    #   state — so free is a pure function of the block-write count;
    # * dirty gains the displaced cells of every write (take), loses spb
    #   whenever a trimmed (unmapped) block is rewritten, and gains spb
    #   per effective trim — three order-independent totals, of which
    #   only the last two need a replay, and only over delete-touched
    #   blocks.
    spb = device.sectors_per_block
    free0 = device.sector_map.free_sectors
    dirty0 = device.sector_map.dirty_sectors
    block_writes = int(compiled.n_blocks[is_write].sum())
    free = max(0, free0 - spb * block_writes)
    taken = free0 - free
    n_eff_trims = 0
    n_unmapped_writes = 0
    is_delete = kinds == DELETE
    if is_delete.any():
        all_blocks = compiled.blocks
        kind_list = kinds.tolist()
        unmapped: set[int] = set()
        for i in np.flatnonzero(is_write | is_delete).tolist():
            blocks = all_blocks[i]
            if kind_list[i] == WRITE:
                for block in blocks:
                    if block in unmapped:
                        unmapped.discard(block)
                        n_unmapped_writes += 1
            else:
                for block in blocks:
                    if block not in unmapped:
                        unmapped.add(block)
                        n_eff_trims += 1
    dirty = dirty0 + taken - spb * n_unmapped_writes + spb * n_eff_trims

    sector_bytes = spec.sector_bytes
    measured_sizes = write_sizes[m_write]
    sector_writes = int(np.maximum(1, -(-measured_sizes // sector_bytes)).sum())

    stats = {
        "reads": int(m_read.sum()),
        "writes": int(m_write.sum()),
        "bytes_read": int(read_bytes[m_read].sum()),
        "bytes_written": int(measured_sizes.sum()),
        "energy_j": read_j + write_j + idle_j,
        "pre_erased_sector_writes": 0,
        "coupled_sector_writes": sector_writes,
        "background_erasures": 0,
        "dirty_sectors": dirty,
        "free_sectors": free,
    }

    return {
        "responses": responses,
        "device_buckets": buckets,
        "device_stats": stats,
        "device_latency_s": busy_measured,
        "cleaning_latency_s": 0.0,
        "cleaning_energy_j": 0.0,
        "cleaning_stall_s": 0.0,
        "end_time": end_time,
    }
