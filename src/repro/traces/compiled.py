"""Traces compiled to per-operation columns for the simulation kernels.

:func:`compile_trace` performs the paper's file-to-disk translation
(section 4.1) once per :class:`Trace` instance, in NumPy over the trace's
columns.  The result is read-only NumPy arrays (op code, issue time,
in-stack size, file id, block count), which the vector kernels in
:mod:`repro.kernel` read as they are, plus one device-block tuple per
operation; :meth:`~repro.core.layers.LayerStack.run_batch` turns the
window it drives into lists once per call.

The mapping is exactly :class:`~repro.traces.filemap.FileMapper`'s, which
the tests keep as a record-by-record oracle:

* A file's *generation* is the number of times it has been deleted so
  far.  Each (file, generation, block index) is bound to a device block on
  its first touch; later touches in the same generation reuse it.  One
  stable sort of a single ``int64`` key finds the first touches, in the
  order the mapper allocates them.
* A deletion frees the blocks bound to the file's current generation,
  which were all first touched before it.  The mapper pushes them on a
  min-heap, and no block is freed between two deletions, so the
  allocations between two deletions take the heap's smallest blocks in
  ascending order, then fresh blocks from the high-water mark.  Blocks
  are resolved one deletion at a time, so each step costs what it frees
  and allocates.

The compilation is cached on the trace object itself: traces are
immutable and the generator cache
(:mod:`repro.experiments.traces_cache`) hands the same instance to every
run of a sweep, so the translation cost amortises across the whole
parameter space.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import TYPE_CHECKING

import numpy as np

from repro.traces.trace import DELETE

if TYPE_CHECKING:
    from repro.traces.trace import Trace

_CACHE_ATTR = "_compiled_ops"


class CompiledOps:
    """One trace, flattened: per-operation NumPy arrays and block tuples.

    ``op_codes[i]`` is the trace's op code (``READ, WRITE, DELETE = 0, 1,
    2``), ``time[i]`` the issue time, ``size[i]`` the in-stack transfer
    size (the block footprint), ``file_id[i]`` the file and
    ``n_blocks[i]`` the block count, all read-only arrays; ``blocks[i]``
    is the device block tuple (for a deletion, the blocks it frees,
    ascending).  ``dataset_blocks`` is the mapper's high-water mark,
    which sizes the simulated device.
    """

    __slots__ = (
        "blocks", "n_ops", "dataset_blocks", "block_bytes",
        "op_codes", "time", "size", "file_id", "n_blocks",
    )

    def __init__(
        self,
        op_codes: np.ndarray,
        time: np.ndarray,
        file_id: np.ndarray,
        n_blocks: np.ndarray,
        blocks: list[tuple[int, ...]],
        dataset_blocks: int,
        block_bytes: int,
    ) -> None:
        size = n_blocks * block_bytes
        for array in (n_blocks, size):
            array.flags.writeable = False
        self.op_codes = op_codes
        self.time = time
        self.size = size
        self.file_id = file_id
        self.n_blocks = n_blocks
        self.blocks = blocks
        self.n_ops = len(blocks)
        self.dataset_blocks = dataset_blocks
        self.block_bytes = block_bytes


def compile_trace(trace: "Trace") -> CompiledOps:
    """The compiled form of ``trace``, translated once and cached on it."""
    cached = getattr(trace, _CACHE_ATTR, None)
    if cached is not None:
        return cached
    compiled = _compile(trace)
    setattr(trace, _CACHE_ATTR, compiled)
    return compiled


def _compile(trace: "Trace") -> CompiledOps:
    time, op, file_id, offset, size = trace.columns
    block_bytes = trace.block_size
    n_ops = len(op)
    deletes = op == DELETE

    # Touches: one per (record, block index), in record then index order,
    # which is the order the mapper allocates in.
    first = offset // block_bytes
    n_blocks = np.where(deletes, 0, (offset % block_bytes + size - 1) // block_bytes + 1)
    ends = np.cumsum(n_blocks)
    n_touches = int(ends[-1]) if n_ops else 0
    touch_index = np.arange(n_touches) + np.repeat(first - (ends - n_blocks), n_blocks)

    # One int64 key per (file, generation, block index).
    incarnation, n_incarnations = _incarnations(file_id, deletes)
    touch_incarnation = np.repeat(incarnation, n_blocks)
    span = int(touch_index.max()) + 1 if n_touches else 1
    if n_incarnations * span >= 2**63:  # huge offsets: rank the indexes
        ranked, touch_index = np.unique(touch_index, return_inverse=True)
        span = len(ranked)
    key = touch_incarnation * span + touch_index

    # First touches: a stable sort keeps each key's earliest touch first.
    # Bindings are numbered in key order, so one incarnation's bindings
    # are contiguous.
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    is_first = np.ones(n_touches, dtype=bool)
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=is_first[1:])
    touch_binding = np.empty(n_touches, dtype=np.int64)
    touch_binding[order] = np.cumsum(is_first) - 1
    binding_touch = order[is_first]
    allocates = np.zeros(n_touches, dtype=bool)
    allocates[binding_touch] = True
    allocation_touch = np.flatnonzero(allocates)
    n_bindings = len(binding_touch)
    allocation_of = np.empty(n_bindings, dtype=np.int64)
    allocation_of[touch_binding[allocation_touch]] = np.arange(n_bindings)

    # Device block of each allocation, resolved one freeing deletion at a
    # time.  The free blocks are a heap of sorted runs, one per deletion,
    # keyed by their first block: allocations take the smallest free
    # blocks in ascending order, a run's worth at a time, then fresh
    # blocks from the high-water mark.
    block_of: list[int] = []
    free: list[tuple[int, list[int]]] = []
    next_block = 0

    def allocate(stop: int) -> None:
        nonlocal next_block
        while len(block_of) < stop and free:
            _, run = heapq.heappop(free)
            take = min(stop - len(block_of), len(run))
            if free:  # only the blocks below the next run's first come first
                take = min(take, bisect_left(run, free[0][0]))
            block_of.extend(run[:take])
            if take < len(run):
                heapq.heappush(free, (run[take], run[take:]))
        fresh = stop - len(block_of)
        block_of.extend(range(next_block, next_block + fresh))
        next_block += fresh

    delete_rows = np.flatnonzero(deletes)
    freed_by_row: dict[int, tuple[int, ...]] = {}
    if len(delete_rows):
        binding_incarnation = sorted_key[is_first] // span
        targets = incarnation[delete_rows]
        low = np.searchsorted(binding_incarnation, targets, "left")
        high = np.searchsorted(binding_incarnation, targets, "right")
        # Allocations made before each deletion: those at earlier touches.
        before = np.searchsorted(allocation_touch, ends[delete_rows], "left")
        freeing = np.flatnonzero(high > low)
        allocation_list = allocation_of.tolist()
        for row, lo, hi, stop in zip(
            delete_rows[freeing].tolist(), low[freeing].tolist(),
            high[freeing].tolist(), before[freeing].tolist(),
        ):
            allocate(stop)
            freed = sorted(map(block_of.__getitem__, allocation_list[lo:hi]))
            heapq.heappush(free, (freed[0], freed))
            freed_by_row[row] = tuple(freed)
    allocate(n_bindings)

    # One int object per binding, shared by every tuple naming it, is
    # cheaper than one per touch.
    binding_block = np.array(block_of, dtype=object)[allocation_of]
    blocks = _block_tuples(n_blocks, binding_block[touch_binding])
    for row in delete_rows.tolist():
        blocks[row] = freed = freed_by_row.get(row, ())
        n_blocks[row] = len(freed)
    return CompiledOps(
        op, time, file_id, n_blocks, blocks, next_block, block_bytes,
    )


def _block_tuples(counts: np.ndarray, touch_block: np.ndarray) -> list[tuple[int, ...]]:
    """Each record's ``counts[i]`` touched device blocks (an object array
    of ints, one per touch) as a tuple (records that touch none, the
    deletions, are left for the caller).

    Most records touch one block: one ``zip`` makes every record the
    1-tuple of its first block, then the records that touch more are
    overwritten one by one.
    """
    if not len(touch_block):
        return [()] * len(counts)
    starts = np.cumsum(counts) - counts
    blocks = list(zip(touch_block.take(starts, mode="clip").tolist()))
    multi = np.flatnonzero(counts > 1)
    touches = touch_block.tolist()
    for row, start, stop in zip(
        multi.tolist(), starts[multi].tolist(), (starts + counts)[multi].tolist()
    ):
        blocks[row] = tuple(touches[start:stop])
    return blocks


def _incarnations(
    file_id: np.ndarray, deletes: np.ndarray
) -> tuple[np.ndarray, int]:
    """A dense id per record for its (file, generation), and the number of
    ids.  A file's generation is the number of deletions of it before the
    record, so a deletion shares the id of the records whose blocks it
    frees."""
    n_ops = len(file_id)
    order = np.argsort(file_id, kind="stable")
    sorted_file = file_id[order]
    # In file then record order, a record starts an incarnation when it
    # is its file's first or follows one of the file's deletions.
    starts = np.ones(n_ops, dtype=bool)
    np.not_equal(sorted_file[1:], sorted_file[:-1], out=starts[1:])
    starts[1:] |= deletes[order][:-1]
    incarnation = np.empty(n_ops, dtype=np.int64)
    incarnation[order] = np.cumsum(starts) - 1
    return incarnation, int(starts.sum())
