"""SNIA block-trace import (MSR-Cambridge dialect).

The SNIA IOTTA repository's most-replayed corpus (MSR-Cambridge, used by
the Boukhobza & Timsit methodology this subsystem follows) is headerless
CSV with a fixed seven-column layout::

    Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime

``Timestamp`` is a Windows FILETIME (100 ns ticks), ``Offset``/``Size``
are bytes, ``Type`` is ``Read``/``Write``.  Records are disk-level; the
importer keeps one extent mapper per ``(hostname, disk)`` so offsets on
different spindles never alias, and interns each disk's synthetic files
into one global file-id namespace.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import TraceError
from repro.traces.filemap import ExtentMapper
from repro.traces.ingest.base import (
    ImportReport,
    RecordBuilder,
    iter_lines,
    open_text,
    parse_error,
    parse_int,
    parse_time,
    time_scale,
)
from repro.traces.record import Operation
from repro.traces.trace import Trace
from repro.units import KB

_OPS = {"read": Operation.READ, "write": Operation.WRITE,
        "r": Operation.READ, "w": Operation.WRITE}


def parse(
    path: str | Path,
    *,
    block_size: int = KB,
    time_unit: str = "100ns",
    name: str | None = None,
) -> tuple[Trace, ImportReport]:
    """Import an MSR-Cambridge-style SNIA trace (streaming, ``.gz`` ok)."""
    path = Path(path)
    source = str(path)
    trace_name = name or path.name.removesuffix(".gz").rsplit(".", 1)[0]
    scale = time_scale(source, time_unit)
    builder = RecordBuilder(
        source=source,
        name=trace_name,
        block_size=block_size,
        level="disk",
        time_scale=scale,
        extra_metadata={"time_unit": time_unit},
    )
    # One extent namespace per (hostname, disk); synthetic per-disk file
    # ids are interned into a dense global namespace on first touch.
    mappers: dict[tuple[str, int], ExtentMapper] = {}
    interned: dict[tuple[str, int, int], int] = {}

    lines = comments = records = 0
    with open_text(path) as stream:
        for line_number, line in iter_lines(stream, source):
            lines += 1
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                comments += 1
                continue
            fields = stripped.split(",")
            if len(fields) < 6:
                raise parse_error(
                    source, line_number,
                    f"expected >= 6 comma-separated fields, got {len(fields)}",
                )
            if lines == 1 and fields[0].strip().lower() == "timestamp":
                comments += 1  # tolerated: some excerpts carry the header
                continue
            time = parse_time(source, line_number, fields[0].strip())
            host = fields[1].strip()
            disk = parse_int(source, line_number, fields[2].strip(),
                             "disk number")
            op = _OPS.get(fields[3].strip().lower())
            if op is None:
                raise parse_error(
                    source, line_number,
                    f"unknown operation {fields[3].strip()!r}",
                )
            offset = parse_int(source, line_number, fields[4].strip(),
                               "offset")
            size = parse_int(source, line_number, fields[5].strip(), "size")
            if offset < 0:
                raise parse_error(
                    source, line_number, f"offset must be >= 0, got {offset}"
                )
            if size <= 0:
                raise parse_error(
                    source, line_number, f"size must be > 0, got {size}"
                )
            mapper = mappers.get((host, disk))
            if mapper is None:
                mapper = mappers[(host, disk)] = ExtentMapper(block_size)
            try:
                local_file, file_offset = mapper.assign(offset, size)
            except TraceError as exc:
                raise parse_error(source, line_number, str(exc)) from exc
            key = (host, disk, local_file)
            file_id = interned.get(key)
            if file_id is None:
                file_id = interned[key] = len(interned)
            builder.add(
                line_number,
                time=time,
                op=op,
                file_id=file_id,
                offset=file_offset,
                size=size,
            )
            records += 1
    builder.extra_metadata.update(
        {"synthesised_files": len(interned), "disks": len(mappers)}
    )
    report = ImportReport(
        source=source, format="snia", lines=lines, records=records,
        comments=comments, filtered=0, reordered=builder.reordered,
    )
    return builder.build(report), report
