"""Pluggable trace import: foreign block/file traces → :class:`Trace`.

Three formats ship in-tree (all streaming, ``.gz``-transparent, total
over malformed input — every failure is a :class:`~repro.errors.
TraceError` naming the source line):

* ``csv`` — arbitrary CSV dialects via a declarative
  :class:`~repro.traces.ingest.csvmap.CsvSpec` column map;
* ``blktrace`` — blkparse-style text (Linux block layer);
* ``snia`` — SNIA IOTTA / MSR-Cambridge seven-column block traces.

:func:`import_trace` is the front door: it resolves the format (explicit
or sniffed), parses, and — when reference statistics are supplied —
enforces the Table 3 conformance gate
(:func:`repro.contract.check_conformance`) before the trace is
allowed into the pipeline, mirroring how every other entry point
(fitting, replay) is gated.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable

from repro.errors import TraceError
from repro.traces.ingest import blktrace as _blktrace
from repro.traces.ingest import csvmap as _csvmap
from repro.traces.ingest import snia as _snia
from repro.traces.ingest.base import ImportReport, open_text
from repro.traces.ingest.csvmap import CsvSpec, parse_column_map
from repro.traces.trace import Trace

#: format name -> parse callable (path, **options) -> (Trace, ImportReport)
FORMATS: dict[str, Callable[..., tuple[Trace, ImportReport]]] = {
    "csv": _csvmap.parse,
    "blktrace": _blktrace.parse,
    "snia": _snia.parse,
}


def detect_format(path: str | Path) -> str:
    """Sniff the format from the first non-blank, non-comment line.

    Heuristics, in order: seven comma-separated fields whose fourth is a
    read/write word → ``snia``; a ``sector + count`` payload →
    ``blktrace``; any comma-separated line → ``csv``.
    """
    path = Path(path)
    with open_text(path) as stream:
        for _ in range(200):
            line = stream.readline()
            if not line:
                break
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.split(",")
            if len(fields) >= 6 and fields[3].strip().lower() in (
                "read", "write", "r", "w",
            ):
                return "snia"
            if "+" in stripped.split() and len(stripped.split()) >= 9:
                return "blktrace"
            if len(fields) >= 3:
                return "csv"
            break
    raise TraceError(
        f"{path}: cannot detect trace format; pass format= explicitly "
        f"(one of {sorted(FORMATS)})"
    )


def import_trace(
    path: str | Path,
    *,
    format: str = "auto",
    expect: Any | None = None,
    tolerances: dict[str, Any] | None = None,
    **options: Any,
) -> tuple[Trace, ImportReport]:
    """Import a foreign trace, optionally gated by reference statistics.

    Args:
        path: source file (``.gz`` transparently decompressed).
        format: ``csv`` / ``blktrace`` / ``snia``, or ``auto`` to sniff.
        expect: reference :class:`~repro.traces.stats.TraceStatistics`
            (or a mapping as produced by its ``to_dict``); when given,
            the imported trace's statistics must conform within the
            declared tolerances or the import raises
            :class:`~repro.errors.TraceError`.
        tolerances: per-field overrides for the conformance gate.
        **options: forwarded to the format parser (``spec=`` for csv,
            ``action=`` for blktrace, ``block_size=``, ``name=`` ...).
    """
    resolved = detect_format(path) if format == "auto" else format
    try:
        parser = FORMATS[resolved]
    except KeyError:
        raise TraceError(
            f"unknown trace format {resolved!r}; expected one of "
            f"{sorted(FORMATS)} (or 'auto')"
        ) from None
    trace, report = parser(path, **options)
    if expect is not None:
        from repro.contract import check_conformance
        from repro.traces.stats import TraceStatistics, compute_statistics

        if isinstance(expect, dict):
            expect = TraceStatistics.from_dict(expect)
        conformance = check_conformance(
            expect, compute_statistics(trace), tolerances=tolerances
        )
        if not conformance.ok:
            raise TraceError(
                f"{path}: imported trace does not conform to the "
                f"reference statistics:\n  "
                + "\n  ".join(conformance.problems())
            )
        trace.metadata["conformance"] = conformance.to_dict()
    return trace, report


__all__ = [
    "CsvSpec",
    "FORMATS",
    "ImportReport",
    "detect_format",
    "import_trace",
    "parse_column_map",
]
