"""Trace record types.

The paper's traces are *file-level*: each record says which file is
accessed, whether the operation is a read or write, the location within the
file, the size of the transfer, and the time of the access (section 4.1).
:class:`TraceRecord` captures exactly those fields, plus ``DELETE`` for the
``dos`` trace's deletions and the ``synth`` workload's erase operations.

Before simulation, file-level records are preprocessed into disk-level
operations by associating a unique disk location with each file (paper
section 4.1); :class:`BlockOp` is the result of that preprocessing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.errors import TraceError


class Operation(enum.Enum):
    """The operation kinds that appear in traces."""

    READ = "read"
    WRITE = "write"
    #: Whole-file deletion (``dos`` trace) or erase (``synth`` workload).
    DELETE = "delete"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One file-level trace event.

    Attributes:
        time: seconds since the start of the trace.
        op: the operation kind.
        file_id: opaque file identifier, unique within the trace.
        offset: byte offset of the transfer within the file.
        size: transfer length in bytes (0 for ``DELETE``).
    """

    time: float
    op: Operation
    file_id: int
    offset: int = 0
    size: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.time < math.inf:  # false for nan, too
            raise TraceError(
                f"record time must be finite and >= 0, got {self.time}"
            )
        if self.offset < 0:
            raise TraceError(f"record offset must be >= 0, got {self.offset}")
        if self.op is Operation.DELETE:
            if self.size != 0:
                raise TraceError("DELETE records must have size 0")
        elif self.size <= 0:
            raise TraceError(
                f"{self.op.value} records must have size > 0, got {self.size}"
            )

    @property
    def end_offset(self) -> int:
        """One past the last byte touched by this record."""
        return self.offset + self.size


@dataclass(frozen=True, slots=True)
class BlockOp:
    """One disk-level operation produced by file-to-block preprocessing.

    Attributes:
        time: seconds since the start of the trace.
        op: the operation kind.
        file_id: originating file (drives the simulator's same-file
            no-seek optimisation, paper section 4.2).
        blocks: device block numbers touched, in transfer order.  For
            ``DELETE`` these are the blocks being freed.
        size: transfer length in bytes (block-aligned requests may be
            slightly larger than the original file-level size).
    """

    time: float
    op: Operation
    file_id: int
    blocks: tuple[int, ...] = field(default_factory=tuple)
    size: int = 0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise TraceError(f"block op time must be >= 0, got {self.time}")
        if self.op is not Operation.DELETE and not self.blocks:
            raise TraceError("read/write block ops must touch >= 1 block")

    @property
    def nblocks(self) -> int:
        """Number of device blocks touched."""
        return len(self.blocks)
