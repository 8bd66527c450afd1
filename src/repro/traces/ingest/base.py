"""Shared machinery for the trace importers.

Every importer in this package is a *streaming* parser: it reads its
source line by line (``.gz`` paths are transparently decompressed) and
never holds the raw file in memory — only the normalised
:class:`~repro.traces.record.TraceRecord` list that becomes the
:class:`~repro.traces.trace.Trace`.

Importers are **total** over their input: any line either parses into a
record or raises :class:`~repro.errors.TraceError` carrying the source
path and 1-based line number.  Nothing is silently dropped — lines a
parser decides to skip (comments, filtered actions) are counted in the
returned :class:`ImportReport`.

Normalisation invariants every importer guarantees:

* times are seconds, rebased so the first record is at 0.0 (foreign
  clocks — Windows filetime ticks, boot-relative nanoseconds — never
  leak into a :class:`Trace`);
* records are sorted by time with a *stable* sort, so out-of-order
  sources (interleaved CPUs in blktrace, multi-host SNIA captures) are
  legal input and ties preserve file order;
* disk-level sources are converted to the paper's file-level records via
  the extent-mapping heuristic in
  :class:`repro.traces.filemap.ExtentMapper` (section 4.1's file-level
  vs disk-level distinction is preserved in the trace metadata).
"""

from __future__ import annotations

import gzip
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Callable

from repro.errors import TraceError
from repro.traces.filemap import ExtentMapper
from repro.traces.record import Operation, TraceRecord
from repro.traces.trace import Trace

#: Multipliers from a source's time unit to seconds.
TIME_UNITS = {
    "s": 1.0,
    "ms": 1e-3,
    "us": 1e-6,
    "ns": 1e-9,
    #: Windows FILETIME ticks (100 ns), the SNIA/MSR-Cambridge clock.
    "100ns": 1e-7,
}


class ImportError_(TraceError):
    """A foreign trace could not be normalised (subclass of TraceError so
    existing ``except TraceError`` handling covers imports too)."""


def parse_error(source: str, line_number: int, detail: str) -> TraceError:
    """The one true import parse error: always path + 1-based line."""
    return ImportError_(f"{source}:{line_number}: {detail}")


def open_text(path: str | Path) -> IO[str]:
    """Open ``path`` for reading, transparently decompressing ``.gz``.

    Decoding is latin-1 with no newline translation surprises: latin-1
    maps every byte, so binary junk (embedded NULs, truncated
    multi-byte sequences) reaches the parser as *characters* and fails
    with a parse error naming the line, never a UnicodeDecodeError
    naming a byte offset.
    """
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="latin-1", errors="replace")
    return open(path, "rt", encoding="latin-1", errors="replace")


def iter_lines(stream: IO[str], source: str) -> Iterator[tuple[int, str]]:
    """Yield ``(line_number, line)`` with trailing CR/LF stripped.

    Wraps mid-stream I/O and gzip corruption into :class:`TraceError`
    so a truncated ``.gz`` reports the line it died on instead of
    leaking ``EOFError``/``OSError`` to the caller.
    """
    line_number = 0
    while True:
        try:
            line = stream.readline()
        except (OSError, EOFError, ValueError) as exc:
            raise parse_error(source, line_number + 1, f"unreadable: {exc}") from exc
        if not line:
            return
        line_number += 1
        yield line_number, line.rstrip("\r\n")


@dataclass(frozen=True)
class ImportReport:
    """What an importer did, line by line (nothing is dropped silently)."""

    source: str
    format: str
    #: total source lines consumed
    lines: int
    #: lines that became trace records
    records: int
    #: comment / header / blank lines
    comments: int
    #: lines excluded by an explicit filter (e.g. blktrace actions other
    #: than the requested one) — counted, never silent
    filtered: int
    #: records whose timestamps arrived out of order (legal; stable-sorted)
    reordered: int

    def summary(self) -> str:
        return (
            f"{self.source}: {self.records} record(s) from {self.lines} "
            f"line(s) [{self.format}] ({self.comments} comment/header, "
            f"{self.filtered} filtered, {self.reordered} out-of-order)"
        )


@dataclass
class RecordBuilder:
    """Accumulates normalised records for one import.

    Centralises the three normalisation steps every importer shares —
    record validation with line provenance, stable time sorting, and
    time rebasing — so parsers only translate fields.
    """

    source: str
    name: str
    block_size: int
    level: str = "file"  #: "file" or "disk" (provenance, kept in metadata)
    #: seconds per source time unit.  ``add`` takes times in *source
    #: units* (ints stay exact); rebasing happens before scaling, so a
    #: Windows FILETIME epoch (~1.3e17 ticks, beyond float64's integer
    #: range) never swallows the sub-millisecond gaps between records.
    time_scale: float = 1.0
    extra_metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise TraceError(
                f"{self.source}: block_size must be positive, got "
                f"{self.block_size}"
            )
        if self.level not in ("file", "disk"):
            raise TraceError(
                f"{self.source}: level must be 'file' or 'disk', got "
                f"{self.level!r}"
            )
        self._rows: list[tuple[float, int, TraceRecord]] = []
        self._mapper = (
            ExtentMapper(self.block_size) if self.level == "disk" else None
        )
        self._reordered = 0
        self._last_time: float | None = None

    @property
    def reordered(self) -> int:
        return self._reordered

    def add(
        self,
        line_number: int,
        *,
        time: float | int,
        op: Operation,
        file_id: int | None = None,
        offset: int = 0,
        size: int = 0,
        disk_offset: int | None = None,
    ) -> None:
        """Add one normalised record (disk-level when ``disk_offset`` is
        given: the file id and in-file offset are synthesised by the
        extent mapper)."""
        if disk_offset is not None:
            if self._mapper is None:
                raise parse_error(
                    self.source, line_number,
                    "disk-level record in a file-level import",
                )
            try:
                file_id, offset = self._mapper.assign(disk_offset, size)
            except TraceError as exc:
                raise parse_error(self.source, line_number, str(exc)) from exc
        elif file_id is None:
            raise parse_error(self.source, line_number, "record names no file")
        try:
            record = TraceRecord(
                # Rebased later: validate with a provisional zero time so
                # rebasing (which only shifts times relative to the first
                # record) cannot un-validate records.
                time=0.0,
                op=op,
                file_id=file_id,
                offset=offset,
                size=size,
            )
        except TraceError as exc:
            raise parse_error(self.source, line_number, str(exc)) from exc
        if time < 0:
            raise parse_error(
                self.source, line_number, f"record time must be >= 0, got {time}"
            )
        if self._last_time is not None and time < self._last_time:
            self._reordered += 1
        self._last_time = time
        self._rows.append((time, len(self._rows), record))

    def build(self, report: ImportReport) -> Trace:
        """Finish the import: stable-sort, rebase to t=0, wrap in a Trace."""
        self._rows.sort(key=lambda row: (row[0], row[1]))
        base = self._rows[0][0] if self._rows else 0.0
        scale = self.time_scale
        records = [
            TraceRecord(
                time=(time - base) * scale,
                op=record.op,
                file_id=record.file_id,
                offset=record.offset,
                size=record.size,
            )
            for time, _, record in self._rows
        ]
        metadata: dict[str, Any] = {
            "imported_from": report.source,
            "import_format": report.format,
            "source_level": self.level,
            "import_lines": report.lines,
            "import_filtered": report.filtered,
            "import_reordered": report.reordered,
        }
        if self._mapper is not None:
            metadata["synthesised_files"] = self._mapper.n_files
        metadata.update(self.extra_metadata)
        return Trace(self.name, records, block_size=self.block_size,
                     metadata=metadata)


def parse_float(source: str, line_number: int, text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise parse_error(
            source, line_number, f"bad {what} {text!r} (not a number)"
        ) from None
    if value != value or value in (float("inf"), float("-inf")):
        raise parse_error(source, line_number, f"bad {what} {text!r} (not finite)")
    return value


def parse_int(source: str, line_number: int, text: str, what: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise parse_error(
            source, line_number, f"bad {what} {text!r} (not an integer)"
        ) from None


def parse_time(source: str, line_number: int, text: str) -> float | int:
    """Parse a timestamp, preferring exact integers (tick clocks)."""
    try:
        return int(text, 10)
    except ValueError:
        return parse_float(source, line_number, text, "time")


def time_scale(source: str, unit: str) -> float:
    try:
        return TIME_UNITS[unit]
    except KeyError:
        raise TraceError(
            f"{source}: unknown time unit {unit!r}; expected one of "
            f"{sorted(TIME_UNITS)}"
        ) from None


#: Signature every format module exposes as ``parse``.
Parser = Callable[..., tuple[Trace, ImportReport]]
