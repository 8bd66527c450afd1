"""Fleet fast path: vectorized population synthesis and batched execution.

The reference fleet path (:mod:`repro.fleet.population`) simulates each
device alone: a ``random.Random`` trace generated op by op, a fresh
hierarchy and simulator per device, a Python dict per metric row.  This
module replaces all three per-device costs with array programs over a
whole shard at once, following the trace-synthesis methodology of
Boukhobza & Timsit and the distribution-level validation stance of
Al-Maeeni et al. (see PAPERS.md):

* **Parameter sampling is exact.**  :func:`sample_device_batch` packs
  the reference sampler's own draws (:func:`~repro.fleet.population.
  sample_devices`) into arrays, so every device's workload, spec, trace
  length, cache sizes, spin-down timeout, and utilization are the
  reference path's — the population's *composition* never moves.

* **Traces are synthesized distributionally.**  Per-device op streams
  are drawn from the same mixtures ``WorkloadSpec.generate`` uses (gap
  burst/pause/session mixture with the same analytic cap-and-rescale
  target, Zipf/hot-cold file popularity over a canonical per-workload
  file table, shifted-geometric sizes, repeat runs, sequential-cursor
  offsets) but from counter-based streams keyed by the device seed —
  order- and shard-invariant by construction.  The simplifications
  (canonical file table instead of a per-device one, no delete
  recycling, run-local sequential cursors, touch-distance LRU window)
  are declared with the fleet gate in :mod:`repro.contract`, which pins
  how far the resulting population summaries may drift from the
  reference.

* **Execution is batched.**  Devices group by workload, then by device
  class: magnetic disks and coupled flash disks run through closed-form
  (G, L) array kernels mirroring :mod:`repro.kernel.disk_kernel` /
  :mod:`repro.kernel.flashdisk_kernel`; flash cards reuse the exact
  :class:`~repro.kernel.flashcard_kernel.CardKernel` per device, over a
  :class:`~repro.traces.compiled.CompiledOps` of the device's
  synthesized row and a card that ``core.hierarchy._build_flash_card``
  sized and preloaded, so cleaning dynamics stay on the reference code
  path.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.config import SimulationConfig
from repro.core.hierarchy import _build_flash_card
from repro.devices.specs import device_spec, memory_spec
from repro.fleet.population import (
    DEVICE_MIX,
    FleetSpec,
    WORKLOAD_MIX,
    sample_devices,
)
from repro.fleet.rng import counter_uniforms
from repro.kernel.flashcard_kernel import CardKernel
from repro.traces.compiled import CompiledOps
from repro.traces.trace import DELETE, READ, WRITE
from repro.traces.workloads import GAP_CHUNK, workload_by_name
from repro.units import KB

WORKLOAD_NAMES = tuple(name for name, _ in WORKLOAD_MIX)
DEVICE_NAMES = tuple(name for name, _ in DEVICE_MIX)

#: Counter-stream ids (one independent stream per draw dimension).
_S_GAP_PART, _S_GAP_VAL = 1, 2
_S_KIND, _S_REPEAT = 3, 4
_S_FILE_HOT, _S_FILE_PICK = 5, 6
_S_SIZE_PART, _S_SIZE_VAL = 7, 8
_S_SEQ, _S_OFFSET = 9, 10
_S_CHUNK_K, _S_CHUNK_S = 11, 12

_NEG = -1.0e30


# ---------------------------------------------------------------------------
# exact parameter sampling
# ---------------------------------------------------------------------------


@dataclass
class DeviceBatch:
    """Arrays of per-device parameters for one shard (sorted by index)."""

    index: np.ndarray  # int64 fleet indices
    seed: np.ndarray  # uint64 per-device seeds
    workload: np.ndarray  # int8 codes into WORKLOAD_NAMES
    device: np.ndarray  # int8 codes into DEVICE_NAMES
    n_ops: np.ndarray  # int64
    dram_bytes: np.ndarray  # int64
    sram_bytes: np.ndarray  # int64
    spin_down_timeout_s: np.ndarray  # float64
    flash_utilization: np.ndarray  # float64


def sample_device_batch(
    spec: FleetSpec, indices: Sequence[int]
) -> DeviceBatch:
    """:func:`~repro.fleet.population.sample_devices` for a shard, packed
    into arrays (same seeds, same draws, same values)."""
    samples = sample_devices(spec, indices)

    def column(attr: str, dtype) -> np.ndarray:
        return np.array([getattr(s, attr) for s in samples], dtype=dtype)

    return DeviceBatch(
        index=column("index", np.int64),
        seed=column("seed", np.uint64),
        workload=np.array(
            [WORKLOAD_NAMES.index(s.workload) for s in samples], dtype=np.int8
        ),
        device=np.array(
            [DEVICE_NAMES.index(s.device) for s in samples], dtype=np.int8
        ),
        n_ops=column("n_ops", np.int64),
        dram_bytes=column("dram_bytes", np.int64),
        sram_bytes=column("sram_bytes", np.int64),
        spin_down_timeout_s=column("spin_down_timeout_s", np.float64),
        flash_utilization=column("flash_utilization", np.float64),
    )


# ---------------------------------------------------------------------------
# canonical per-workload tables
# ---------------------------------------------------------------------------


class _WorkloadTables:
    """File sizes, Zipf cumulative weights, and the hot set for one
    workload — the canonical stand-in for ``WorkloadSpec.generate``'s
    per-device tables (file sizes are i.i.d. uniform, so assigning them
    in rank order is distributionally identical to the reference's
    per-device shuffle)."""

    def __init__(self, name: str) -> None:
        ws = workload_by_name(name)
        self.spec = ws
        self.block_bytes = ws.block_size
        target = ws.distinct_kbytes * KB // ws.block_size
        table_seed = np.uint64(
            int.from_bytes(
                hashlib.sha256(f"synth-files:{name}".encode()).digest()[:8],
                "big",
            )
        )
        lo, hi = ws.min_file_blocks, ws.max_file_blocks
        estimate = int(target / ((lo + hi) / 2) * 1.5) + 32
        sizes = np.empty(0, dtype=np.int64)
        start = 0
        while sizes.sum() < target:
            u = counter_uniforms(
                np.array([table_seed]),
                0,
                np.arange(start, start + estimate, dtype=np.uint64),
            )
            draw = lo + np.floor(u * (hi - lo + 1)).astype(np.int64)
            sizes = np.concatenate([sizes, np.minimum(draw, hi)])
            start += estimate
        cum = np.cumsum(sizes)
        k = int(np.searchsorted(cum, target))
        sizes = sizes[: k + 1].copy()
        before = int(cum[k - 1]) if k > 0 else 0
        sizes[k] = min(int(sizes[k]), target - before) or 1

        self.file_blocks = sizes
        self.n_files = len(sizes)
        self.file_base = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(sizes)[:-1]]
        )
        self.total_blocks = int(sizes.sum())

        weights = 1.0 / np.arange(1.0, self.n_files + 1) ** ws.zipf_exponent
        self.cum_weights = np.cumsum(weights)
        self.total_weight = float(self.cum_weights[-1])

        self.hot_count = 0
        if ws.hot_access_fraction is not None:
            hot_target = ws.hot_data_fraction * self.total_blocks
            exclusive = np.cumsum(sizes) - sizes
            self.hot_count = max(1, int((exclusive < hot_target).sum()))
        self.cold_count = self.n_files - self.hot_count
        if ws.hot_access_fraction is not None and self.cold_count == 0:
            self.cold_count = self.hot_count  # degenerate: all hot


def _binomial_pmf(n: int, p: float) -> tuple[np.ndarray, int]:
    """Binomial(n, p) PMF truncated past the mean + ~10 sigma tail."""
    mean = n * p
    k_max = min(n, int(mean + 10.0 * math.sqrt(mean * (1.0 - p))) + 8)
    pmf = np.zeros(k_max + 1, dtype=np.float64)
    pmf[0] = (1.0 - p) ** n
    ratio = p / (1.0 - p)
    for k in range(k_max):
        pmf[k + 1] = pmf[k] * ((n - k) / (k + 1)) * ratio
    return pmf, k_max


_TABLE_CACHE: dict[str, _WorkloadTables] = {}


def workload_tables(name: str) -> _WorkloadTables:
    tables = _TABLE_CACHE.get(name)
    if tables is None:
        tables = _TABLE_CACHE[name] = _WorkloadTables(name)
    return tables


# ---------------------------------------------------------------------------
# trace synthesis (one workload group at a time)
# ---------------------------------------------------------------------------


@dataclass
class TraceBatch:
    """Padded (G, L) op arrays for one workload group, plus the exploded
    block-touch arrays the DRAM window model and the card path consume."""

    tables: _WorkloadTables
    n_ops: np.ndarray  # (G,)
    valid: np.ndarray  # (G, L) bool
    t: np.ndarray  # (G, L) float64 op times
    kind: np.ndarray  # (G, L) int8 (padding = DELETE with 0 blocks)
    file: np.ndarray  # (G, L) int64
    n_blocks: np.ndarray  # (G, L) int64 (0 for deletes/padding)
    size: np.ndarray  # (G, L) int64 bytes
    duration: np.ndarray  # (G,) last op time
    # exploded block touches (device-major, op order preserved)
    touch_op: np.ndarray  # flat op id (row * L + slot)
    touch_block: np.ndarray  # global canonical block id
    touch_start: np.ndarray  # (G,) first touch index per device
    touch_count: np.ndarray  # (G,) touches per device
    op_touch_start: np.ndarray  # (G*L,) first touch index per op
    distinct_blocks: np.ndarray  # (G,) first-touch dataset size


def synthesize_traces(
    name: str, seeds: np.ndarray, n_ops: np.ndarray
) -> TraceBatch:
    """Synthesize every device's trace for one workload as array math."""
    tables = workload_tables(name)
    ws = tables.spec
    g = len(seeds)
    length = int(n_ops.max())
    dev = seeds.reshape(-1, 1)
    ctr = np.arange(length, dtype=np.uint64).reshape(1, -1)
    slot = np.arange(length).reshape(1, -1)
    valid = slot < n_ops.reshape(-1, 1)

    def draw(stream: int) -> np.ndarray:
        return counter_uniforms(dev, stream, ctr)

    # -- inter-arrival gaps: the reference mixture, scaled per device by
    # a synthesized GAP_CHUNK-draw chunk mean, then capped.  The reference
    # ``_gap_chunk`` rescales each chunk of raw gaps by
    # ``target / realized``; per device, nearly all the variance of
    # ``realized`` comes from how many rare heavy session gaps landed in
    # the chunk (Binomial(GAP_CHUNK, session_fraction)) and how large they
    # were — the burst/mid bulk concentrates to its mean by CLT.  That
    # per-device scale spread is what puts some devices' mid-pause tail
    # above the spin-down threshold, so it must be reproduced, not
    # averaged away.
    burst_mean = ws.interarrival_mean_s * ws.burst_mean_scale
    mid_mean = ws.mid_mean_s
    if mid_mean is None:
        mid_mean = (
            ws.interarrival_mean_s - ws.burst_weight * burst_mean
        ) / (1.0 - ws.burst_weight)
    mid_weight = 1.0 - ws.burst_weight - ws.session_fraction
    nonsession_mean = 0.0
    if ws.session_fraction < 1.0:
        nonsession_mean = (
            ws.burst_weight * burst_mean + mid_weight * mid_mean
        ) / (1.0 - ws.session_fraction)
    if ws.session_fraction > 0.0:
        pmf, k_max = _binomial_pmf(GAP_CHUNK, ws.session_fraction)
        cdf = np.cumsum(pmf)
        u_chunk = counter_uniforms(
            seeds, _S_CHUNK_K, np.zeros(1, dtype=np.uint64)
        ).ravel()
        k = np.searchsorted(cdf, u_chunk, side="left").astype(np.int64)
        u_sessions = counter_uniforms(
            dev, _S_CHUNK_S, np.arange(k_max, dtype=np.uint64).reshape(1, -1)
        )
        session_vals = ws.session_min_s + (
            ws.session_max_s - ws.session_min_s
        ) * u_sessions
        prefix = np.concatenate(
            [np.zeros((g, 1)), np.cumsum(session_vals, axis=1)], axis=1
        )
        session_sum = np.take_along_axis(
            prefix, k.reshape(-1, 1), axis=1
        ).ravel()
        realized = (
            (GAP_CHUNK - k) * nonsession_mean + session_sum
        ) / GAP_CHUNK
    else:
        realized = np.full(g, nonsession_mean)
    rescale = np.where(
        realized > 0, ws.interarrival_mean_s / realized, 1.0
    ).reshape(-1, 1)
    u_part = draw(_S_GAP_PART)
    u_val = draw(_S_GAP_VAL)
    raw = np.where(
        u_part < ws.burst_weight,
        -burst_mean * np.log(u_val),
        np.where(
            u_part < ws.burst_weight + ws.session_fraction,
            ws.session_min_s + (ws.session_max_s - ws.session_min_s) * u_val,
            -mid_mean * np.log(u_val),
        ),
    )
    gaps = np.minimum(raw * rescale, ws.interarrival_max_s)
    t = np.cumsum(np.where(valid, gaps, 0.0), axis=1)

    # -- op kinds
    u_kind = draw(_S_KIND)
    kind = np.where(
        u_kind < ws.read_fraction,
        READ,
        np.where(
            u_kind < ws.read_fraction + ws.delete_fraction, DELETE, WRITE
        ),
    ).astype(np.int8)

    # -- candidate files (hot/cold overlay or Zipf rank draw)
    u_pick = draw(_S_FILE_PICK)
    if ws.hot_access_fraction is not None:
        hot_fraction = np.where(
            (kind == WRITE) & (ws.write_hot_access_fraction is not None),
            ws.write_hot_access_fraction
            if ws.write_hot_access_fraction is not None
            else ws.hot_access_fraction,
            ws.hot_access_fraction,
        )
        pick_hot = draw(_S_FILE_HOT) < hot_fraction
        hot_file = np.floor(u_pick * tables.hot_count).astype(np.int64)
        cold_file = tables.hot_count + np.floor(
            u_pick * tables.cold_count
        ).astype(np.int64)
        if tables.cold_count == tables.hot_count == tables.n_files:
            cold_file = hot_file  # degenerate all-hot table
        candidate = np.where(pick_hot, hot_file, cold_file)
        candidate = np.minimum(candidate, tables.n_files - 1)
    else:
        point = u_pick * tables.total_weight
        candidate = np.searchsorted(
            tables.cum_weights, point, side="left"
        ).astype(np.int64)
        candidate = np.minimum(candidate, tables.n_files - 1)

    # -- repeat runs: an op repeats the previous op's file with the
    # reference probability; the run start's candidate is gathered
    # through a running maximum (declared simplification: the reference's
    # deleted-file and write-hot repeat guards are dropped).
    repeat = (draw(_S_REPEAT) < ws.repeat_fraction) & (slot > 0)
    anchor = np.where(repeat, 0, np.broadcast_to(slot, (g, length)))
    run_start = np.maximum.accumulate(anchor, axis=1)
    file = np.take_along_axis(candidate, run_start, axis=1)
    file_size = tables.file_blocks[file]

    # -- transfer sizes: two-component shifted geometric
    mean = np.where(
        kind == READ, ws.mean_read_blocks, ws.mean_write_blocks
    )
    if ws.large_fraction > 0:
        body_mean = np.maximum(
            1.0,
            (mean - ws.large_fraction * ws.large_mean_blocks)
            / (1.0 - ws.large_fraction),
        )
        use_large = draw(_S_SIZE_PART) < ws.large_fraction
        mean = np.where(use_large, ws.large_mean_blocks, body_mean)
    u_size = draw(_S_SIZE_VAL)
    success = 1.0 / np.maximum(mean, 1.0 + 1e-12)
    geometric = 1 + np.floor(
        np.log(np.maximum(u_size, 1e-12)) / np.log(1.0 - success)
    ).astype(np.int64)
    geometric = np.where(mean <= 1.0, 1, geometric)
    n_blocks = np.maximum(1, np.minimum(geometric, file_size))
    n_blocks = np.where((kind == DELETE) | ~valid, 0, n_blocks)

    # -- offsets: fresh uniform at run starts, sequential-cursor
    # continuation within a run with the reference probability
    limit = np.maximum(file_size - n_blocks, 0)
    fresh = np.floor(draw(_S_OFFSET) * (limit + 1)).astype(np.int64)
    fresh = np.minimum(fresh, limit)
    inclusive = np.cumsum(n_blocks, axis=1)
    exclusive = inclusive - n_blocks
    run_exclusive = np.take_along_axis(exclusive, run_start, axis=1)
    run_base = np.take_along_axis(fresh, run_start, axis=1)
    cursor = (run_base + (exclusive - run_exclusive)) % np.maximum(
        file_size, 1
    )
    sequential = (
        repeat
        & (draw(_S_SEQ) < ws.sequential_fraction)
        & (cursor <= limit)
    )
    offset = np.where(sequential, cursor, fresh)
    size = n_blocks * tables.block_bytes

    duration = np.take_along_axis(
        t, (n_ops - 1).reshape(-1, 1), axis=1
    ).ravel()

    # -- exploded block touches (device-major order)
    counts = n_blocks.ravel()
    total = int(counts.sum())
    flat_ops = np.repeat(np.arange(g * length), counts)
    op_touch_start = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(counts)[:-1]]
    )
    within = np.arange(total) - op_touch_start[flat_ops]
    first_block = (tables.file_base[file] + offset).ravel()
    touch_block = first_block[flat_ops] + within
    touch_count = counts.reshape(g, length).sum(axis=1)
    touch_start = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(touch_count)[:-1]]
    )
    touch_dev = flat_ops // length
    key = touch_dev * tables.total_blocks + touch_block
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    is_first = np.empty(total, dtype=bool)
    if total:
        is_first[0] = True
        is_first[1:] = sorted_key[1:] != sorted_key[:-1]
    distinct = np.bincount(
        touch_dev[order][is_first], minlength=g
    ).astype(np.int64)

    return TraceBatch(
        tables=tables,
        n_ops=n_ops,
        valid=valid,
        t=t,
        kind=np.where(valid, kind, DELETE).astype(np.int8),
        file=file,
        n_blocks=n_blocks,
        size=size,
        duration=duration,
        touch_op=flat_ops,
        touch_block=touch_block,
        touch_start=touch_start,
        touch_count=touch_count,
        op_touch_start=op_touch_start,
        distinct_blocks=distinct,
    )


# ---------------------------------------------------------------------------
# DRAM window model
# ---------------------------------------------------------------------------


def classify_dram(
    batch: TraceBatch, dram_blocks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-op (hit_counts, miss_counts, wait) under a touch-distance LRU
    window.

    First touches (cold misses) are exact; a re-touch hits iff its
    distance in *block touches* since the previous touch of the same
    block fits the device's DRAM capacity — an approximation of LRU
    stack distance (which counts distinct blocks) declared in the
    contract.  Devices with no DRAM miss everything and wait nothing.
    """
    tables = batch.tables
    g, length = batch.valid.shape
    total = len(batch.touch_op)
    hit_counts = np.zeros((g, length), dtype=np.int64)
    miss_counts = np.zeros((g, length), dtype=np.int64)
    if total:
        touch_dev = batch.touch_op // length
        seq = np.arange(total) - batch.touch_start[touch_dev]
        key = touch_dev * tables.total_blocks + batch.touch_block
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        same = np.empty(total, dtype=bool)
        same[0] = False
        same[1:] = sorted_key[1:] == sorted_key[:-1]
        dist = np.empty(total, dtype=np.int64)
        dist[0] = 0
        sorted_seq = seq[order]
        dist[1:] = sorted_seq[1:] - sorted_seq[:-1]
        cap = dram_blocks[touch_dev[order]]
        hit_sorted = same & (cap > 0) & (dist <= cap)
        hit = np.empty(total, dtype=bool)
        hit[order] = hit_sorted

        read_touch = batch.kind.ravel()[batch.touch_op] == READ
        hits = np.bincount(
            batch.touch_op[read_touch & hit], minlength=g * length
        )
        misses = np.bincount(
            batch.touch_op[read_touch & ~hit], minlength=g * length
        )
        hit_counts = hits.reshape(g, length).astype(np.int64)
        miss_counts = misses.reshape(g, length).astype(np.int64)

    dram_part = memory_spec("nec-dram")
    latency = dram_part.access_latency_s
    bandwidth = dram_part.bandwidth_bps
    bb = tables.block_bytes
    has_dram = (dram_blocks > 0).reshape(-1, 1)
    is_read = batch.kind == READ
    is_write = batch.kind == WRITE
    wait = np.zeros((g, length), dtype=np.float64)
    read_wait = is_read & (hit_counts > 0)
    wait[read_wait] = latency + (hit_counts[read_wait] * bb) / bandwidth
    write_wait = is_write & batch.valid & has_dram & (batch.size > 0)
    wait[write_wait] = latency + batch.size[write_wait] / bandwidth
    return hit_counts, miss_counts, wait


# ---------------------------------------------------------------------------
# closed-form group kernels
# ---------------------------------------------------------------------------


def _lindley_2d(
    acc: np.ndarray, arrival: np.ndarray, dur: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """FIFO completions along axis 1 for access ops; returns
    ``(completions, prev_completion)`` with non-access slots carrying
    the running frontier forward."""
    d = np.where(acc, dur, 0.0)
    eff = np.where(acc, arrival, _NEG)
    cs = np.cumsum(d, axis=1)
    completions = cs + np.maximum.accumulate(eff - (cs - d), axis=1)
    prev = np.empty_like(completions)
    prev[:, 0] = 0.0
    prev[:, 1:] = completions[:, :-1]
    return completions, np.maximum(prev, 0.0)


def _masked_mean_ms(resp: np.ndarray, mask: np.ndarray) -> np.ndarray:
    count = mask.sum(axis=1)
    sums = np.where(mask, resp, 0.0).sum(axis=1)
    return np.where(count > 0, sums / np.maximum(count, 1), 0.0) * 1e3


def _memory_energy(
    batch: TraceBatch,
    rows: np.ndarray,
    wait: np.ndarray,
    dram_bytes: np.ndarray,
    sram_bytes: np.ndarray,
    measured: np.ndarray,
    end_time: np.ndarray,
    sram_wait_sum: np.ndarray | None,
) -> np.ndarray:
    """DRAM + SRAM standby/active energy per device (vector twin of the
    memory terms in ``kernel.vector._assemble``)."""
    warm = (batch.n_ops[rows] // 10).astype(np.int64)
    t = batch.t[rows]
    clock_reset = np.take_along_axis(
        t, np.maximum(warm - 1, 0).reshape(-1, 1), axis=1
    ).ravel()
    clock_reset = np.where(warm > 0, clock_reset, 0.0)
    standby_window = end_time - clock_reset

    energy = np.zeros(len(rows), dtype=np.float64)
    dram_part = memory_spec("nec-dram")
    has_dram = dram_bytes > 0
    dram_wait = np.where(measured, wait, 0.0).sum(axis=1)
    energy += np.where(
        has_dram,
        dram_part.standby_power_w_per_byte * dram_bytes * standby_window
        + dram_part.active_power_w * dram_wait,
        0.0,
    )
    sram_part = memory_spec("nec-sram")
    has_sram = sram_bytes > 0
    if sram_wait_sum is None:
        sram_wait_sum = np.zeros(len(rows), dtype=np.float64)
    energy += np.where(
        has_sram,
        sram_part.standby_power_w_per_byte * sram_bytes * standby_window
        + sram_part.active_power_w * sram_wait_sum,
        0.0,
    )
    return energy


def _per_device_measured(batch: TraceBatch, rows: np.ndarray) -> np.ndarray:
    warm = (batch.n_ops[rows] // 10).reshape(-1, 1)
    slot = np.arange(batch.valid.shape[1]).reshape(1, -1)
    return (slot >= warm) & batch.valid[rows]


def run_disks_fast(
    batch: TraceBatch,
    rows: np.ndarray,
    miss_counts: np.ndarray,
    wait: np.ndarray,
    device_code: np.ndarray,
    dram_bytes: np.ndarray,
    sram_bytes: np.ndarray,
    timeout: np.ndarray,
) -> dict[str, np.ndarray]:
    """Closed-form group twin of :class:`~repro.kernel.disk_kernel.
    DiskKernel`'s awake-mode scan, with spin-down handled per idle gap
    (gap classification uses the no-spin-up completion frontier — a
    declared approximation; spin-ups are rare and follow long idles)."""
    tables = batch.tables
    bb = tables.block_bytes
    cu = device_spec(DEVICE_NAMES[0])
    kh = device_spec(DEVICE_NAMES[1])

    def const(attr: str) -> np.ndarray:
        return np.where(
            device_code == 0, getattr(cu, attr), getattr(kh, attr)
        ).reshape(-1, 1)

    seek_s = const("seek_s")
    fixed_s = const("rotation_s") + const("controller_s")
    read_bw = const("read_bandwidth_bps")
    write_bw = const("write_bandwidth_bps")
    active_w = const("active_power_w")
    idle_w = const("idle_power_w")
    spin_down_s = const("spin_down_s")
    spin_down_w = const("spin_down_power_w")
    sleep_w = const("sleep_power_w")
    spin_up_s = const("spin_up_s")
    spin_up_w = const("spin_up_power_w")
    t_col = timeout.reshape(-1, 1)

    valid = batch.valid[rows]
    t = batch.t[rows]
    kind = batch.kind[rows]
    size = batch.size[rows].astype(np.float64)
    nb = batch.n_blocks[rows]
    file = batch.file[rows]
    w = wait[rows]
    miss = miss_counts[rows]

    is_read = (kind == READ) & valid
    is_write = (kind == WRITE) & valid
    has_dram = (dram_bytes > 0).reshape(-1, 1)
    dev_read_blocks = np.where(has_dram, miss, nb)
    read_bytes = np.where(is_read, dev_read_blocks * bb, 0).astype(
        np.float64
    )
    dev_read = is_read & (read_bytes > 0)
    sram_part = memory_spec("nec-sram")
    sram_cap = (sram_bytes // bb).reshape(-1, 1)
    absorbed = is_write & (nb <= sram_cap) & (sram_cap > 0)
    bypass = is_write & ~absorbed
    acc = dev_read | is_write

    arrival = np.where(absorbed, t, t + w)
    sw = np.where(
        absorbed,
        sram_part.access_latency_s + size / sram_part.bandwidth_bps,
        0.0,
    )
    acc_size = np.where(is_read, read_bytes, size)
    base_dur = np.where(
        is_read,
        fixed_s + acc_size / read_bw,
        fixed_s + acc_size / write_bw,
    )
    # Seek iff the file differs from the previous *access* op's file.
    slot = np.arange(valid.shape[1]).reshape(1, -1)
    acc_slot = np.where(acc, slot, -1)
    last_acc = np.maximum.accumulate(acc_slot, axis=1)
    prev_acc = np.empty_like(last_acc)
    prev_acc[:, 0] = -1
    prev_acc[:, 1:] = last_acc[:, :-1]
    prev_file = np.take_along_axis(
        file, np.maximum(prev_acc, 0), axis=1
    )
    needs_seek = (prev_acc < 0) | (file != prev_file)
    dur = base_dur + np.where(needs_seek, seek_s, 0.0)

    # Pass 1: completions without spin-up delays -> idle-gap lengths.
    completions, prev_completion = _lindley_2d(acc, arrival, dur)
    gap = np.where(acc, np.maximum(arrival - prev_completion, 0.0), 0.0)
    spun_down = acc & (gap > t_col)
    full_sleep = gap >= t_col + spin_down_s
    wake_delay = np.where(
        spun_down,
        spin_up_s + np.where(full_sleep, 0.0, (t_col + spin_down_s) - gap),
        0.0,
    )
    # Pass 2: fold the wake delays into the service times.
    completions, prev_completion = _lindley_2d(acc, arrival, dur + wake_delay)

    resp = np.where(is_read, (t + w) - t, 0.0)
    resp = np.where(absorbed, ((t + w) + sw) - t, resp)
    queue_wait = np.maximum(0.0, prev_completion - arrival)
    adjusted = completions - np.minimum(
        queue_wait, np.maximum(0.0, completions - arrival)
    )
    resp = np.where(dev_read | bypass, adjusted - t, resp)

    measured = _per_device_measured(batch, rows)
    m_acc = acc & measured
    e_read = (
        active_w.ravel()
        * np.where(dev_read & measured, dur, 0.0).sum(axis=1)
    )
    e_write = (
        active_w.ravel()
        * np.where(is_write & measured, dur, 0.0).sum(axis=1)
    )
    # Idle-gap energy, charged per access gap plus the tail after the
    # final access (mirrors MagneticDisk.advance's state machine).
    def gap_energy(gaps: np.ndarray, mask: np.ndarray, wake: np.ndarray
                   ) -> np.ndarray:
        idle = idle_w * np.minimum(gaps, t_col)
        down = spin_down_w * np.where(
            gaps > t_col, spin_down_s, 0.0
        )
        # A partially spun-down disk is waited out at access (full
        # spin-down energy); the tail only charges elapsed spin-down.
        down_tail = spin_down_w * np.clip(gaps - t_col, 0.0, spin_down_s)
        sleep = sleep_w * np.maximum(gaps - t_col - spin_down_s, 0.0)
        up = spin_up_w * spin_up_s * (gaps > t_col)
        per_gap = np.where(
            wake, idle + down + sleep + up, idle + down_tail + sleep
        )
        return np.where(mask, per_gap, 0.0).sum(axis=1)

    wake = np.ones_like(gap, dtype=bool)
    e_gaps = gap_energy(gap, m_acc, wake)

    frontier = np.maximum(
        np.where(acc, completions, 0.0).max(axis=1, initial=0.0), 0.0
    )
    last_t = batch.duration[rows]
    end_time = np.maximum(frontier, last_t)
    tail = np.maximum(end_time - np.maximum(frontier, 0.0), 0.0)
    tail_e = (
        idle_w.ravel() * np.minimum(tail, timeout)
        + spin_down_w.ravel()
        * np.clip(tail - timeout, 0.0, spin_down_s.ravel())
        + sleep_w.ravel()
        * np.maximum(tail - timeout - spin_down_s.ravel(), 0.0)
    )
    device_e = e_read + e_write + e_gaps + tail_e

    sram_wait_sum = np.where(absorbed & measured, sw, 0.0).sum(axis=1)
    energy = device_e + _memory_energy(
        batch, rows, wait[rows], dram_bytes, sram_bytes, measured,
        end_time, sram_wait_sum,
    )
    return {
        "energy_j": energy,
        "read_ms": _masked_mean_ms(resp, is_read & measured),
        "write_ms": _masked_mean_ms(resp, is_write & measured),
        "overall_ms": _masked_mean_ms(
            resp, (kind != DELETE) & measured
        ),
        "wear_max": np.full(len(rows), np.nan),
    }


def run_flashdisks_fast(
    batch: TraceBatch,
    rows: np.ndarray,
    miss_counts: np.ndarray,
    wait: np.ndarray,
    dram_bytes: np.ndarray,
) -> dict[str, np.ndarray]:
    """Closed-form group twin of :func:`~repro.kernel.flashdisk_kernel.
    run_flashdisk` (coupled mode is timing-stateless, so the whole run
    is array math; sector pools do not feed the fleet metrics)."""
    tables = batch.tables
    bb = tables.block_bytes
    spec = device_spec(DEVICE_NAMES[2])

    valid = batch.valid[rows]
    t = batch.t[rows]
    kind = batch.kind[rows]
    size = batch.size[rows].astype(np.float64)
    nb = batch.n_blocks[rows]
    w = wait[rows]
    miss = miss_counts[rows]

    is_read = (kind == READ) & valid
    is_write = (kind == WRITE) & valid
    has_dram = (dram_bytes > 0).reshape(-1, 1)
    dev_read_blocks = np.where(has_dram, miss, nb)
    read_bytes = np.where(is_read, dev_read_blocks * bb, 0).astype(
        np.float64
    )
    dev_read = is_read & (read_bytes > 0)
    acc = dev_read | is_write

    dur = np.where(dev_read, read_bytes / spec.read_bandwidth_bps, 0.0)
    dur = np.where(is_write, size / spec.write_bandwidth_bps, dur)
    dur = np.where(acc, dur + spec.access_latency_s, dur)

    arrival = t + w
    completions, prev_completion = _lindley_2d(acc, arrival, dur)
    resp = np.where(valid, (t + w) - t, 0.0)
    queue_wait = np.maximum(0.0, prev_completion - arrival)
    adjusted = completions - np.minimum(
        queue_wait, np.maximum(0.0, completions - arrival)
    )
    resp = np.where(acc, adjusted - t, resp)

    measured = _per_device_measured(batch, rows)
    e_read = spec.active_power_w * np.where(
        dev_read & measured, dur, 0.0
    ).sum(axis=1)
    e_write = spec.active_power_w * np.where(
        is_write & measured, dur, 0.0
    ).sum(axis=1)

    warm = (batch.n_ops[rows] // 10).astype(np.int64)
    running = np.maximum.accumulate(np.where(acc, completions, 0.0), axis=1)
    warm_frontier = np.take_along_axis(
        running, np.maximum(warm - 1, 0).reshape(-1, 1), axis=1
    ).ravel()
    boundary_t = np.take_along_axis(
        t, np.maximum(warm - 1, 0).reshape(-1, 1), axis=1
    ).ravel()
    clock_reset = np.where(
        warm > 0, np.maximum(warm_frontier, boundary_t), 0.0
    )
    last_completion = running[:, -1]
    last_t = batch.duration[rows]
    end_time = np.maximum(last_completion, last_t)
    busy_measured = np.where(acc & measured, dur, 0.0).sum(axis=1)
    idle = spec.idle_power_w * np.maximum(
        0.0, (end_time - clock_reset) - busy_measured
    )
    device_e = e_read + e_write + idle

    energy = device_e + _memory_energy(
        batch, rows, wait[rows], dram_bytes,
        np.zeros(len(rows), dtype=np.int64), measured, end_time, None,
    )
    return {
        "energy_j": energy,
        "read_ms": _masked_mean_ms(resp, is_read & measured),
        "write_ms": _masked_mean_ms(resp, is_write & measured),
        "overall_ms": _masked_mean_ms(
            resp, (kind != DELETE) & measured
        ),
        "wear_max": np.full(len(rows), np.nan),
    }


# ---------------------------------------------------------------------------
# flash cards: the exact CardKernel per device, fed synthesized arrays
# ---------------------------------------------------------------------------


class _Plan:
    __slots__ = ("miss_counts",)

    def __init__(self, miss_counts) -> None:
        self.miss_counts = miss_counts


def run_cards_fast(
    batch: TraceBatch,
    rows: np.ndarray,
    miss_counts: np.ndarray,
    wait: np.ndarray,
    dram_bytes: np.ndarray,
    utilization: np.ndarray,
) -> dict[str, np.ndarray]:
    """Per-device :class:`CardKernel` runs over synthesized arrays.

    Block ids are remapped per device to their first-touch-compact form
    (rank within the device's distinct set), reproducing the reference
    FileMapper's contiguous allocation so preload coverage and cleaning
    pressure match; the card itself — segments, greedy victim
    selection, background cleaning — is the reference code path.
    """
    tables = batch.tables
    bb = tables.block_bytes
    spec = device_spec(DEVICE_NAMES[3])
    length = batch.valid.shape[1]

    out = {
        "energy_j": np.zeros(len(rows)),
        "read_ms": np.zeros(len(rows)),
        "write_ms": np.zeros(len(rows)),
        "overall_ms": np.zeros(len(rows)),
        "wear_max": np.zeros(len(rows)),
    }
    dram_part = memory_spec("nec-dram")

    for r, row in enumerate(rows.tolist()):
        n = int(batch.n_ops[row])
        kind = batch.kind[row, :n]
        t = batch.t[row, :n]
        nb = batch.n_blocks[row, :n]
        w = wait[row, :n]
        has_dram = dram_bytes[r] > 0
        plan = _Plan(miss_counts[row, :n]) if has_dram else None

        # Remap this device's touched blocks to 0..D-1 in first-touch
        # order (the FileMapper allocates device ids as blocks first
        # appear in the op stream, so a file's blocks interleave with
        # other files' — sorted order would co-locate whole files in
        # single preloaded segments and skew cleaning toward fully-dead
        # victims).
        start = int(batch.touch_start[row])
        stop = start + int(batch.touch_count[row])
        blocks_flat = batch.touch_block[start:stop]
        unique, first_idx, inverse = np.unique(
            blocks_flat, return_index=True, return_inverse=True
        )
        dataset_blocks = max(1, len(unique))
        rank = np.empty(len(unique), dtype=np.int64)
        rank[np.argsort(first_idx, kind="stable")] = np.arange(len(unique))
        remapped = rank[inverse].tolist()

        blocks: list[tuple[int, ...]] = [()] * n
        is_write_op = kind == WRITE
        for i in np.flatnonzero(is_write_op).tolist():
            a = int(batch.op_touch_start[row * length + i]) - start
            blocks[i] = tuple(remapped[a : a + int(nb[i])])

        # The reference path's card: sized and preloaded by the hierarchy.
        config = SimulationConfig(
            device=spec.name, flash_utilization=float(utilization[r])
        )
        card = _build_flash_card(config, spec, bb, dataset_blocks)
        compiled = CompiledOps(
            kind, t, batch.file[row, :n], nb, blocks, dataset_blocks, bb
        )

        warm = n // 10
        kernel = CardKernel(card, plan, bb)
        outcome = kernel.run(compiled, w, warm, float(batch.duration[row]))
        end_time = outcome["end_time"]
        resp = outcome["responses"][warm:]
        kinds_m = kind[warm:]
        device_e = sum(outcome["device_buckets"].values())

        measured_start = float(t[warm]) if warm < n else end_time
        duration = max(0.0, end_time - measured_start)
        clock_reset = float(t[warm - 1]) if warm > 0 else 0.0
        standby_window = end_time - clock_reset
        dram_e = 0.0
        if has_dram:
            dram_e = (
                dram_part.standby_power_w_per_byte
                * float(dram_bytes[r])
                * standby_window
                + dram_part.active_power_w * float(w[warm:].sum())
            )

        read_resp = resp[kinds_m == READ]
        write_resp = resp[kinds_m == WRITE]
        overall_resp = resp[kinds_m != DELETE]
        out["energy_j"][r] = device_e + dram_e
        out["read_ms"][r] = (
            float(read_resp.mean()) * 1e3 if read_resp.size else 0.0
        )
        out["write_ms"][r] = (
            float(write_resp.mean()) * 1e3 if write_resp.size else 0.0
        )
        out["overall_ms"][r] = (
            float(overall_resp.mean()) * 1e3 if overall_resp.size else 0.0
        )
        out["wear_max"][r] = float(card.wear(duration).max_erasures)
    return out


# ---------------------------------------------------------------------------
# shard driver
# ---------------------------------------------------------------------------


def simulate_shard_fast(
    spec: FleetSpec, indices: Sequence[int]
) -> tuple[list[dict[str, object]], DeviceBatch]:
    """Simulate a shard of the fleet on the fast path.

    Returns aggregation rows shaped exactly like
    :func:`~repro.fleet.population.simulate_device`'s, in index order,
    plus the (exact) parameter batch for column packing.
    """
    samples = sample_device_batch(spec, indices)
    n = len(samples.index)
    metrics = {
        "energy_j": np.zeros(n),
        "read_ms": np.zeros(n),
        "write_ms": np.zeros(n),
        "overall_ms": np.zeros(n),
        "wear_max": np.full(n, np.nan),
    }

    for code, name in enumerate(WORKLOAD_NAMES):
        group = np.flatnonzero(samples.workload == code)
        if not len(group):
            continue
        batch = synthesize_traces(
            name, samples.seed[group], samples.n_ops[group]
        )
        _, miss_counts, wait = classify_dram(
            batch, samples.dram_bytes[group] // batch.tables.block_bytes
        )
        device_code = samples.device[group]

        def scatter(rows_local: np.ndarray, results: dict) -> None:
            target = group[rows_local]
            for key, values in results.items():
                metrics[key][target] = values

        disks = np.flatnonzero(device_code <= 1)
        if len(disks):
            scatter(disks, run_disks_fast(
                batch, disks, miss_counts, wait,
                device_code[disks].astype(np.int64),
                samples.dram_bytes[group][disks],
                samples.sram_bytes[group][disks],
                samples.spin_down_timeout_s[group][disks],
            ))
        flash = np.flatnonzero(device_code == 2)
        if len(flash):
            scatter(flash, run_flashdisks_fast(
                batch, flash, miss_counts, wait,
                samples.dram_bytes[group][flash],
            ))
        cards = np.flatnonzero(device_code == 3)
        if len(cards):
            scatter(cards, run_cards_fast(
                batch, cards, miss_counts, wait,
                samples.dram_bytes[group][cards],
                samples.flash_utilization[group][cards],
            ))

    rows: list[dict[str, object]] = []
    for i in range(n):
        wear = metrics["wear_max"][i]
        rows.append({
            "device": int(samples.index[i]),
            "workload": WORKLOAD_NAMES[samples.workload[i]],
            "spec": DEVICE_NAMES[samples.device[i]],
            "ops": int(samples.n_ops[i]),
            "energy_j": float(metrics["energy_j"][i]),
            "read_ms": float(metrics["read_ms"][i]),
            "write_ms": float(metrics["write_ms"][i]),
            "overall_ms": float(metrics["overall_ms"][i]),
            "wear_max": None if math.isnan(wear) else float(wear),
        })
    return rows, samples
