"""File-level to disk-level preprocessing — and the reverse.

The paper's file-level traces "were preprocessed to convert file-level
accesses into disk-level operations, by associating a unique disk location
with each file" (section 4.1).  :class:`FileMapper` performs that
association: every (file, block-within-file) pair is bound to a device block
number on first touch, deletions release the binding, and released blocks
are recycled for later allocations.  It maps one record at a time and is
the oracle for :func:`~repro.traces.compiled.compile_trace`, which
computes the same mapping over a whole trace's columns in NumPy.

Allocation is lazy and per-block rather than per-file because the traces do
not announce file sizes up front; a file's blocks are allocated in access
order, which for sequential access yields contiguous device blocks, matching
the "optimal disk layout" assumption the simulator makes about seeks (paper
section 4.2).

:class:`ExtentMapper` runs the mapping in the *other* direction for
imported disk-level traces (blktrace, SNIA block traces), which carry raw
device offsets and no file identity.  The paper's pipeline is file-level
throughout, so disk-level imports synthesise file ids with an extent
heuristic: a contiguous run of device blocks is one file, a run appended
immediately after an extent's tail grows that file (sequential streams
coalesce), and anything else starts a new file.  The synthesised layout is
deliberately conservative — it recovers exactly the structure the
simulator's same-file no-seek optimisation and the cleaner's per-file
locality can legitimately exploit, never more.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable

from repro.errors import TraceError
from repro.traces.compiled import compile_trace
from repro.traces.record import BlockOp, Operation, TraceRecord
from repro.traces.trace import Trace


class FileMapper:
    """Maps file-level trace records onto device block numbers.

    Args:
        block_size: device block size in bytes; file offsets are rounded
            down and transfer ends rounded up to this granularity.
        capacity_blocks: optional hard limit on the number of device blocks;
            ``None`` means unbounded (the common case, since the simulated
            devices are sized from the mapped trace).
    """

    def __init__(self, block_size: int, capacity_blocks: int | None = None) -> None:
        if block_size <= 0:
            raise TraceError(f"block_size must be positive, got {block_size}")
        self.block_size = block_size
        self.capacity_blocks = capacity_blocks
        self._file_blocks: dict[int, dict[int, int]] = {}
        self._free_blocks: list[int] = []  # min-heap of recycled blocks
        self._next_block = 0

    # -- allocation ---------------------------------------------------------

    def _allocate(self) -> int:
        if self._free_blocks:
            return heapq.heappop(self._free_blocks)
        block = self._next_block
        if self.capacity_blocks is not None and block >= self.capacity_blocks:
            raise TraceError(
                f"trace needs more than {self.capacity_blocks} device blocks"
            )
        self._next_block += 1
        return block

    @property
    def blocks_in_use(self) -> int:
        """Number of device blocks currently bound to live file data."""
        return sum(len(blocks) for blocks in self._file_blocks.values())

    @property
    def high_water_blocks(self) -> int:
        """Largest device block number ever handed out, plus one."""
        return self._next_block

    def device_blocks(self, file_id: int) -> list[int]:
        """Device blocks currently bound to ``file_id`` (in file order)."""
        mapping = self._file_blocks.get(file_id, {})
        return [mapping[index] for index in sorted(mapping)]

    # -- record translation ---------------------------------------------------

    def translate(self, record: TraceRecord) -> BlockOp:
        """Translate one file-level record into a disk-level operation."""
        if record.op is Operation.DELETE:
            mapping = self._file_blocks.pop(record.file_id, {})
            freed = tuple(sorted(mapping.values()))
            for block in freed:
                heapq.heappush(self._free_blocks, block)
            return BlockOp(
                time=record.time,
                op=Operation.DELETE,
                file_id=record.file_id,
                blocks=freed,
                size=len(freed) * self.block_size,
            )

        mapping = self._file_blocks.setdefault(record.file_id, {})
        first = record.offset // self.block_size
        last = (record.end_offset - 1) // self.block_size
        blocks = []
        for index in range(first, last + 1):
            device_block = mapping.get(index)
            if device_block is None:
                device_block = self._allocate()
                mapping[index] = device_block
            blocks.append(device_block)
        return BlockOp(
            time=record.time,
            op=record.op,
            file_id=record.file_id,
            blocks=tuple(blocks),
            size=len(blocks) * self.block_size,
        )

    def translate_all(self, records: Iterable[TraceRecord]) -> list[BlockOp]:
        """Translate a sequence of records, preserving order."""
        return [self.translate(record) for record in records]


#: Largest single transfer :meth:`ExtentMapper.assign` accepts.  Block
#: ownership is tracked per block, so an absurd size (a corrupt field)
#: would otherwise exhaust memory; real block traces move at most a few
#: MiB per request.
MAX_TRANSFER_BYTES = 64 * 1024 * 1024


class ExtentMapper:
    """Synthesises file identity for disk-level trace records.

    Args:
        block_size: device block size in bytes.
        max_file_blocks: cap on a synthesised file's size; a sequential
            scan of the whole device becomes a run of ``max_file_blocks``
            files instead of one device-sized file.  A single access
            larger than the cap still becomes one file (a file is at
            least as large as its largest transfer).

    The mapping is deterministic in input order: file ids are dense
    integers assigned on first touch, so the same disk trace always
    synthesises the same file structure.
    """

    def __init__(self, block_size: int, max_file_blocks: int = 4096) -> None:
        if block_size <= 0:
            raise TraceError(f"block_size must be positive, got {block_size}")
        if max_file_blocks <= 0:
            raise TraceError(
                f"max_file_blocks must be positive, got {max_file_blocks}"
            )
        self.block_size = block_size
        self.max_file_blocks = max_file_blocks
        #: device block -> (file_id, block index within the file)
        self._owner: dict[int, tuple[int, int]] = {}
        self._file_len: dict[int, int] = {}

    @property
    def n_files(self) -> int:
        """Number of synthetic files created so far."""
        return len(self._file_len)

    def assign(self, disk_offset: int, size: int) -> tuple[int, int]:
        """Map a disk transfer to ``(file_id, offset_within_file_bytes)``.

        Heuristic, in priority order: (1) a run already owned end to end
        by one file at contiguous indices reuses it; (2) a run starting
        right after a file's current tail extends that file (sequential
        streams coalesce, up to ``max_file_blocks``); (3) anything else
        — first touch, partial overlap, extent crossing — becomes a
        fresh file claiming the whole run (overlapped blocks are
        re-owned, which keeps every lookup O(run length) and total).
        """
        if disk_offset < 0:
            raise TraceError(f"disk offset must be >= 0, got {disk_offset}")
        if not 0 < size <= MAX_TRANSFER_BYTES:
            raise TraceError(
                f"transfer size must be in (0, {MAX_TRANSFER_BYTES}] bytes, "
                f"got {size}"
            )
        block_size = self.block_size
        first = disk_offset // block_size
        last = (disk_offset + size - 1) // block_size
        nblocks = last - first + 1
        within = disk_offset - first * block_size

        owner = self._owner.get(first)
        if owner is not None:
            file_id, index = owner
            if all(
                self._owner.get(first + k) == (file_id, index + k)
                for k in range(1, nblocks)
            ):
                return file_id, index * block_size + within

        predecessor = self._owner.get(first - 1) if first > 0 else None
        if predecessor is not None:
            file_id, index = predecessor
            tail = self._file_len[file_id]
            if index == tail - 1 and tail + nblocks <= self.max_file_blocks:
                for k in range(nblocks):
                    self._owner[first + k] = (file_id, tail + k)
                self._file_len[file_id] = tail + nblocks
                return file_id, tail * block_size + within

        file_id = len(self._file_len)
        for k in range(nblocks):
            self._owner[first + k] = (file_id, k)
        self._file_len[file_id] = nblocks
        return file_id, within


def map_trace(trace: Trace, capacity_blocks: int | None = None) -> list[BlockOp]:
    """Convenience wrapper: map a whole :class:`Trace` to disk-level ops."""
    mapper = FileMapper(trace.block_size, capacity_blocks)
    return mapper.translate_all(trace)


def dataset_blocks(trace: Trace) -> int:
    """Number of distinct device blocks a trace binds over its lifetime.

    This is the high-water mark of the mapper after the full trace, which is
    what the simulated device capacity must cover (read from the trace's
    cached compiled form).
    """
    return compile_trace(trace).dataset_blocks
