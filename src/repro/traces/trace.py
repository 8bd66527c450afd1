"""The :class:`Trace` container: five read-only NumPy columns with the
metadata the simulator needs (block size, provenance).

The columns are the representation: time (``float64``), op code
(``int8``: :data:`READ`, :data:`WRITE`, :data:`DELETE`), file id, offset
and size (``int64``).  The generators append straight into columns and
build the trace with :meth:`Trace.from_columns`, which runs every
:class:`TraceRecord` check and the time-order check in bulk;
:func:`~repro.traces.compiled.compile_trace` maps the columns to device
blocks in NumPy, and a pickled trace is its columns alone.

:class:`TraceRecord` objects are a lazy view over the columns, kept for
the text export, the ingest and fitting code and
:class:`~repro.traces.filemap.FileMapper`: ``records``, iteration and
indexing build them, with Python ``float`` and ``int`` fields, on first
use and cache them.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import Any

import numpy as np

from repro.errors import TraceError
from repro.traces.record import Operation, TraceRecord
from repro.units import KB

#: Op codes of the op column; the vector kernels use the same codes.
READ, WRITE, DELETE = 0, 1, 2
#: The :class:`Operation` of each op code.
OPERATIONS = (Operation.READ, Operation.WRITE, Operation.DELETE)
_CODES = {op: code for code, op in enumerate(OPERATIONS)}


class Trace:
    """An ordered, validated sequence of file-level trace records, held
    as five read-only columns (see the module docstring).

    Records must be sorted by time (ties allowed).  The ``block_size``
    matches the paper's Table 3 ("Block size (Kbytes)"): 1 KB for ``mac``
    and ``hp``, 0.5 KB for ``dos``.
    """

    def __init__(
        self,
        name: str,
        records: Iterable[TraceRecord],
        *,
        block_size: int = KB,
        metadata: dict[str, Any] | None = None,
    ) -> None:
        records = list(records)
        self._set_columns(
            name,
            (
                [r.time for r in records],
                [_CODES[r.op] for r in records],
                [r.file_id for r in records],
                [r.offset for r in records],
                [r.size for r in records],
            ),
            block_size,
            metadata,
        )
        self._records: list[TraceRecord] | None = records

    @classmethod
    def from_columns(
        cls,
        name: str,
        time: Any,
        op: Any,
        file_id: Any,
        offset: Any,
        size: Any,
        *,
        block_size: int = KB,
        metadata: dict[str, Any] | None = None,
    ) -> Trace:
        """A trace over five parallel columns (sequences or arrays; ``op``
        holds op codes).  Every :class:`TraceRecord` check and the
        time-order check run in bulk, raising the :class:`TraceError` the
        first offending record would."""
        trace = cls.__new__(cls)
        trace._set_columns(name, (time, op, file_id, offset, size), block_size, metadata)
        trace._records = None
        return trace

    def _set_columns(
        self,
        name: str,
        columns: tuple[Any, ...],
        block_size: int,
        metadata: dict[str, Any] | None,
    ) -> None:
        if block_size <= 0:
            raise TraceError(f"block_size must be positive, got {block_size}")
        try:
            time = np.array(columns[0], np.float64)
            op, file_id, offset, size = (np.array(c, np.int64) for c in columns[1:])
        except OverflowError:
            raise TraceError(
                f"trace {name!r}: a record field does not fit in 64 bits"
            ) from None
        if any(c.ndim != 1 or c.shape != time.shape for c in (time, op, file_id, offset, size)):
            raise TraceError(f"trace {name!r}: columns must be 1-d and of equal length")
        bad_op = (op < READ) | (op > DELETE)
        bad = (
            bad_op
            | ~((time >= 0.0) & (time < np.inf))
            | (offset < 0)
            | np.where(op == DELETE, size != 0, size <= 0)
        )
        if bad.any():
            index = int(bad.argmax())
            if bad_op[index]:
                raise TraceError(
                    f"trace {name!r}: record {index} has op code {int(op[index])}, "
                    f"expected {READ}, {WRITE} or {DELETE}"
                )
            # Building the record raises its own TraceError.
            TraceRecord(
                float(time[index]), OPERATIONS[op[index]], int(file_id[index]),
                int(offset[index]), int(size[index]),
            )
            raise AssertionError("bulk record check disagrees with TraceRecord")
        back = time[1:] < time[:-1]
        if back.any():
            index = int(back.argmax()) + 1
            raise TraceError(
                f"trace {name!r}: record {index} goes back in time "
                f"({float(time[index])} < {float(time[index - 1])})"
            )
        self.name = name
        self.block_size = block_size
        self.metadata: dict[str, Any] = dict(metadata or {})
        self._columns = (time, op.astype(np.int8), file_id, offset, size)
        for column in self._columns:
            column.flags.writeable = False
        self._distinct_bytes: int | None = None

    def __reduce__(self):
        # Pickled as its columns alone: the compiled ops, op arrays, DRAM
        # plans and records cached on the trace are rebuilt on demand.
        return (_unpickle, (self.name, self._columns, self.block_size, self.metadata))

    def __setstate__(self, state: Any) -> None:
        # Only a pickle from before traces were columnar gets here: it
        # holds records, so it never becomes a trace without columns.
        raise TraceError("pickled trace has no columns (a pre-columnar format)")

    # -- columns and the record view ----------------------------------------

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """The read-only (time, op, file_id, offset, size) columns."""
        return self._columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self.records[index]

    @property
    def records(self) -> list[TraceRecord]:
        """The record list, built on first use (treat as read-only)."""
        records = self._records
        if records is None:
            time, op, file_id, offset, size = (c.tolist() for c in self._columns)
            records = self._records = list(
                map(TraceRecord, time, map(OPERATIONS.__getitem__, op),
                    file_id, offset, size)
            )
        return records

    # -- derived properties ------------------------------------------------

    @property
    def duration(self) -> float:
        """Time of the last record, in seconds (0 for an empty trace)."""
        time = self._columns[0]
        return float(time[-1]) if len(time) else 0.0

    def file_ids(self) -> set[int]:
        """The set of distinct files referenced anywhere in the trace."""
        return set(np.unique(self._columns[2]).tolist())

    def distinct_bytes(self) -> int:
        """Distinct bytes accessed, at block granularity.

        This is the paper's "Number of distinct Kbytes accessed" (Table 3):
        the union, over all read/write records, of the file blocks touched.

        The result is memoised (traces are immutable), and the
        overwhelmingly common single-block record takes a ``set.add`` fast
        path instead of materialising a one-element range.
        """
        cached = self._distinct_bytes
        if cached is not None:
            return cached
        touched: dict[int, set[int]] = {}
        block_size = self.block_size
        get = touched.get
        _, op, file_id, offset, size = (c.tolist() for c in self._columns)
        for code, file, start, length in zip(op, file_id, offset, size):
            if code == DELETE:
                continue
            blocks = get(file)
            if blocks is None:
                blocks = touched[file] = set()
            first = start // block_size
            last = (start + length - 1) // block_size
            if first == last:
                blocks.add(first)
            else:
                blocks.update(range(first, last + 1))
        total = sum(len(blocks) for blocks in touched.values()) * block_size
        self._distinct_bytes = total
        return total

    def operation_counts(self) -> dict[Operation, int]:
        """Count of records per operation kind."""
        counts = np.bincount(self._columns[1], minlength=len(OPERATIONS))
        return {op: int(counts[code]) for code, op in enumerate(OPERATIONS)}

    # -- warm-start split ----------------------------------------------------

    def split_warm(self, fraction: float = 0.1) -> tuple[Trace, Trace]:
        """Split the trace into (warm-up, measured) parts.

        The paper processes the first 10% of each trace to warm the buffer
        cache and generates statistics from the remainder (section 4.2).
        """
        if not 0.0 <= fraction < 1.0:
            raise TraceError(f"warm fraction must be in [0, 1), got {fraction}")
        cut = int(len(self) * fraction)
        warm, rest = (
            Trace.from_columns(
                f"{self.name}:{label}", *(column[part] for column in self._columns),
                block_size=self.block_size, metadata=self.metadata,
            )
            for label, part in (("warm", slice(None, cut)), ("measured", slice(cut, None)))
        )
        return warm, rest

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Trace(name={self.name!r}, records={len(self)}, "
            f"block_size={self.block_size}, duration={self.duration:.1f}s)"
        )


def _unpickle(
    name: str,
    columns: tuple[np.ndarray, ...],
    block_size: int,
    metadata: dict[str, Any],
) -> Trace:
    return Trace.from_columns(name, *columns, block_size=block_size, metadata=metadata)
