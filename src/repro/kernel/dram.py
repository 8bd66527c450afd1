"""Shared DRAM buffer-cache classification pass.

In the write-through/LRU envelope the vector kernel supports, the DRAM
cache's behaviour is a pure function of the operation stream: which blocks
hit, which miss, and which sub-request reaches the layer below depend only
on the block sequence and the cache capacity — never on the device.  One
sequential pass therefore serves *every* device row of a sweep; the result
is cached on the trace keyed by capacity, exactly like the compiled ops.

The pass replays :class:`~repro.cache.buffer_cache.BufferCache`'s LRU
semantics on one ``OrderedDict``, as the cache itself keeps them:

* READ: partition blocks into hits (touched) and misses, then install the
  misses (evicting LRU victims);
* WRITE: install all blocks (touch resident, insert new with eviction);
* DELETE: invalidate.

Outputs are per-op arrays (hit/miss counts and the DRAM wait) plus a flat
``miss`` array with offsets for the few consumers that need miss block
identities (the sleeping-disk episode path).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

import numpy as np

from repro.traces.trace import DELETE, READ

if TYPE_CHECKING:
    from repro.devices.specs import MemorySpec
    from repro.traces.compiled import CompiledOps
    from repro.traces.trace import Trace

_CACHE_ATTR = "_kernel_dram_plans"


class DramPlan:
    """Per-op DRAM classification for one (trace, capacity) pair.

    ``wait_s`` excludes the part-specific timing — it is filled in by
    :meth:`waits_for` because different rows of a sweep could in principle
    use different DRAM parts (the classification itself is part-agnostic).
    """

    __slots__ = ("capacity_blocks", "hit_counts", "miss_counts",
                 "miss_flat", "miss_off")

    def __init__(self, capacity_blocks: int, hit_counts, miss_counts,
                 miss_flat, miss_off) -> None:
        self.capacity_blocks = capacity_blocks
        self.hit_counts = hit_counts
        self.miss_counts = miss_counts
        self.miss_flat = miss_flat
        self.miss_off = miss_off

    def miss_blocks(self, index: int) -> list[int]:
        """Miss block identities of read op ``index`` (rarely needed)."""
        lo, hi = self.miss_off[index], self.miss_off[index + 1]
        return self.miss_flat[lo:hi].tolist()

    def waits_for(self, compiled: "CompiledOps", spec: "MemorySpec",
                  block_bytes: int) -> np.ndarray:
        """Per-op DRAM wait (seconds) for the given memory part.

        Reads wait on the hit footprint, writes on their full size, and
        deletes never wait — mirroring ``BufferCache.access_time`` call
        sites in :class:`~repro.core.layers.DramLayer`.
        """
        latency = spec.access_latency_s
        bandwidth = spec.bandwidth_bps
        wait = np.zeros(compiled.n_ops, dtype=np.float64)
        is_read = compiled.op_codes == READ
        hit_bytes = self.hit_counts * block_bytes
        np.divide(hit_bytes, bandwidth, out=wait, where=is_read & (hit_bytes > 0))
        wait[is_read & (hit_bytes > 0)] += latency
        is_write = ~is_read & (compiled.op_codes != DELETE)
        sized = is_write & (compiled.size > 0)
        wait[sized] = latency + compiled.size[sized] / bandwidth
        return wait


def classify(trace: "Trace", compiled: "CompiledOps",
             capacity_blocks: int) -> DramPlan:
    """The LRU classification of ``trace`` at ``capacity_blocks``, cached."""
    plans = getattr(trace, _CACHE_ATTR, None)
    if plans is None:
        plans = {}
        setattr(trace, _CACHE_ATTR, plans)
    plan = plans.get(capacity_blocks)
    if plan is None:
        plan = _classify(compiled, capacity_blocks)
        plans[capacity_blocks] = plan
    return plan


def _classify(compiled: "CompiledOps", capacity_blocks: int) -> DramPlan:
    hit_counts: list[int] = []
    miss_counts: list[int] = []
    miss_list: list[int] = []
    miss_off: list[int] = [0]

    # The same OrderedDict BufferCache keeps: membership = resident,
    # move_to_end = touch, popitem(last=False) = evict.
    order: OrderedDict[int, None] = OrderedDict()
    move_to_end = order.move_to_end
    popitem = order.popitem
    pop = order.pop
    append_miss = miss_list.append
    append_hits = hit_counts.append
    append_misses = miss_counts.append
    append_off = miss_off.append

    for code, blocks in zip(compiled.op_codes.tolist(), compiled.blocks):
        hits = 0
        misses = 0
        if code == READ:
            for block in blocks:
                if block in order:
                    move_to_end(block)
                    hits += 1
                else:
                    misses += 1
                    append_miss(block)
            if misses:
                # install(misses): each is new; evict down to capacity.
                start = len(miss_list) - misses
                for block in miss_list[start:]:
                    while len(order) >= capacity_blocks:
                        popitem(last=False)
                    order[block] = None
        elif code == DELETE:
            for block in blocks:
                pop(block, None)
        else:  # WRITE: install(blocks)
            for block in blocks:
                if block in order:
                    move_to_end(block)
                else:
                    while len(order) >= capacity_blocks:
                        popitem(last=False)
                    order[block] = None
        append_hits(hits)
        append_misses(misses)
        append_off(len(miss_list))

    return DramPlan(
        capacity_blocks,
        np.array(hit_counts, dtype=np.int32),
        np.array(miss_counts, dtype=np.int32),
        np.asarray(miss_list, dtype=np.int64),
        np.array(miss_off, dtype=np.int64),
    )
