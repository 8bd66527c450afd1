"""Trace-import conformance suite.

Three layers, mirroring the golden-experiment corpus:

* **Golden fixtures** — real-format excerpts under ``tests/golden/traces``
  are imported and their full :class:`TraceStatistics` compared against
  snapshotted ``<fixture>.stats.json`` files (refresh with
  ``--update-golden``).
* **Conformance gate** — :func:`import_trace`'s ``expect=`` path accepts a
  conforming trace and rejects a perturbed reference with a
  :class:`TraceError` naming the failing fields; round-trips through
  ``save_trace``/``load_trace`` stay within :data:`IMPORT_TOLERANCES`.
* **Parser totality** — Hypothesis drives each parser with adversarial
  input (truncated lines, out-of-order timestamps, zero-size ops, CRLF,
  embedded NULs, binary junk): every input either parses — with the
  accounting identity ``lines == records + comments + filtered`` — or
  raises :class:`TraceError` carrying a 1-based line number.  Parsers
  never crash with a foreign exception and never silently drop a line.
"""

from __future__ import annotations

import gzip
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.contract import IMPORT_TOLERANCES, check_conformance
from repro.errors import TraceError
from repro.traces.ingest import (
    CsvSpec,
    detect_format,
    import_trace,
    parse_column_map,
)
from repro.traces.ingest import blktrace as blktrace_mod
from repro.traces.ingest import csvmap as csvmap_mod
from repro.traces.ingest import snia as snia_mod
from repro.traces.io import load_trace, save_trace
from repro.traces.stats import TraceStatistics, compute_statistics

GOLDEN_DIR = Path(__file__).parent / "golden" / "traces"

FILE_CSV_SPEC = CsvSpec(
    columns={"time": "Timestamp", "op": "Type", "file": "File",
             "offset": "Offset", "size": "Size"},
)

#: fixture file -> (expected format, parser options)
FIXTURES: dict[str, tuple[str, dict]] = {
    "sample_file.csv": ("csv", {"spec": FILE_CSV_SPEC}),
    "sample_blk.txt": ("blktrace", {}),
    "sample_msr.csv": ("snia", {}),
}


def _import_fixture(filename: str):
    fmt, options = FIXTURES[filename]
    return import_trace(GOLDEN_DIR / filename, format=fmt, **options)


# -- golden statistics snapshots -------------------------------------------


@pytest.mark.parametrize("filename", sorted(FIXTURES))
def test_fixture_matches_golden_statistics(filename, update_golden):
    trace, report = _import_fixture(filename)
    stats = compute_statistics(trace)
    # JSON round-trip before comparing so the snapshot is exactly what a
    # reader of the .stats.json file sees.
    actual = json.loads(json.dumps(stats.to_dict()))
    path = GOLDEN_DIR / f"{filename}.stats.json"
    if update_golden:
        path.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"no golden statistics for {filename!r}; generate with "
        f"--update-golden"
    )
    expected = json.loads(path.read_text())
    assert actual == expected, (
        f"{filename} import statistics diverged from the golden snapshot; "
        f"if intentional, re-baseline with --update-golden and call it "
        f"out in the PR"
    )


def test_every_fixture_has_a_snapshot_and_vice_versa():
    """A stale .stats.json (or a fixture without one) fails loudly."""
    snapshots = {p.name for p in GOLDEN_DIR.glob("*.stats.json")}
    expected = {f"{name}.stats.json" for name in FIXTURES}
    assert snapshots == expected


@pytest.mark.parametrize("filename", sorted(FIXTURES))
def test_fixture_format_detection(filename):
    assert detect_format(GOLDEN_DIR / filename) == FIXTURES[filename][0]


@pytest.mark.parametrize("filename", sorted(FIXTURES))
def test_fixture_report_accounting(filename):
    trace, report = _import_fixture(filename)
    assert report.lines == report.records + report.comments + report.filtered
    assert len(trace) == report.records
    times = [r.time for r in trace]
    assert times == sorted(times)
    assert times[0] == 0.0


def test_file_csv_fixture_is_file_level():
    trace, _ = _import_fixture("sample_file.csv")
    assert trace.metadata["source_level"] == "file"
    # Deletes survive file-level import (the paper's traces carry them).
    assert any(r.op.value == "delete" for r in trace)


def test_blktrace_fixture_filters_non_queue_actions():
    trace, report = _import_fixture("sample_blk.txt")
    assert trace.metadata["source_level"] == "disk"
    assert report.filtered > 0  # G/D/C events counted, not dropped
    assert report.records == 9  # the Q events
    assert trace.metadata["synthesised_files"] >= 1


def test_snia_fixture_keeps_disks_apart():
    trace, _ = _import_fixture("sample_msr.csv")
    assert trace.metadata["disks"] == 3  # (usr,0), (usr,1), (prn,0)
    assert trace.metadata["synthesised_files"] >= 3
    # FILETIME ticks (100 ns) → seconds, rebased to zero: the excerpt
    # spans exactly 4 030 000 000 ticks.
    stats = compute_statistics(trace)
    assert stats.duration_s == pytest.approx(403.0)


# -- conformance gate ------------------------------------------------------


@pytest.mark.parametrize("filename", sorted(FIXTURES))
def test_import_gate_accepts_conforming_reference(filename):
    fmt, options = FIXTURES[filename]
    reference = compute_statistics(_import_fixture(filename)[0])
    trace, _ = import_trace(
        GOLDEN_DIR / filename, format=fmt, expect=reference, **options
    )
    assert trace.metadata["conformance"]["ok"] is True


def test_import_gate_accepts_reference_as_dict():
    reference = compute_statistics(_import_fixture("sample_file.csv")[0])
    trace, _ = import_trace(
        GOLDEN_DIR / "sample_file.csv", format="csv", spec=FILE_CSV_SPEC,
        expect=reference.to_dict(),
    )
    assert trace.metadata["conformance"]["ok"] is True


def test_import_gate_rejects_nonconforming_reference():
    reference = compute_statistics(_import_fixture("sample_file.csv")[0])
    wrong = TraceStatistics.from_dict(
        {**reference.to_dict(), "fraction_reads": 0.0, "block_size_kbytes": 4.0}
    )
    with pytest.raises(TraceError, match="does not conform") as excinfo:
        import_trace(
            GOLDEN_DIR / "sample_file.csv", format="csv", spec=FILE_CSV_SPEC,
            expect=wrong,
        )
    assert "fraction_reads" in str(excinfo.value)
    assert "block_size_kbytes" in str(excinfo.value)


@pytest.mark.parametrize("filename", sorted(FIXTURES))
def test_roundtrip_conforms_under_import_tolerances(filename, tmp_path):
    """Import → save_trace → load_trace preserves Table 3 statistics."""
    trace, _ = _import_fixture(filename)
    path = tmp_path / "roundtrip.txt.gz"
    save_trace(trace, path)
    reloaded = load_trace(path)
    report = check_conformance(
        compute_statistics(trace), compute_statistics(reloaded),
        tolerances=IMPORT_TOLERANCES,
    )
    assert report.ok, "\n".join(report.problems())


def test_unknown_format_rejected(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("0,read,1,0,4096\n")
    with pytest.raises(TraceError, match="unknown trace format"):
        import_trace(path, format="vhs")


def test_undetectable_format_rejected(tmp_path):
    path = tmp_path / "x.dat"
    path.write_text("hello\n")
    with pytest.raises(TraceError, match="cannot detect"):
        import_trace(path)


def test_parse_column_map_cli_syntax():
    assert parse_column_map("time=Timestamp,op=2,size=Size") == {
        "time": "Timestamp", "op": 2, "size": "Size",
    }
    with pytest.raises(TraceError, match="expected field=column"):
        parse_column_map("time")


# -- deterministic adversarial cases ---------------------------------------

LINE_REF = re.compile(r":\d+: ")

INDEXED_SPEC = CsvSpec(
    columns={"time": 0, "op": 1, "file": 2, "offset": 3, "size": 4},
    header=False,
)


def _write(tmp_path: Path, text: str, name: str = "t.csv") -> Path:
    path = tmp_path / name
    path.write_bytes(text.encode("latin-1"))
    return path


def test_csv_truncated_line_names_line(tmp_path):
    path = _write(tmp_path, "0.0,read,1,0,4096\n0.5,read,1\n")
    with pytest.raises(TraceError, match=r"t\.csv:2: "):
        csvmap_mod.parse(path, spec=INDEXED_SPEC)


def test_csv_zero_size_read_names_line(tmp_path):
    path = _write(tmp_path, "0.0,read,1,0,0\n")
    with pytest.raises(TraceError, match=r"t\.csv:1: "):
        csvmap_mod.parse(path, spec=INDEXED_SPEC)


def test_csv_embedded_nul_names_line(tmp_path):
    path = _write(tmp_path, "0.0,re\x00ad,1,0,4096\n")
    with pytest.raises(TraceError, match=LINE_REF):
        csvmap_mod.parse(path, spec=INDEXED_SPEC)


def test_csv_crlf_accepted(tmp_path):
    path = _write(tmp_path, "0.0,read,1,0,4096\r\n0.5,write,2,0,512\r\n")
    trace, report = csvmap_mod.parse(path, spec=INDEXED_SPEC)
    assert report.records == 2
    assert trace[1].size == 512


def test_csv_out_of_order_times_stable_sorted(tmp_path):
    path = _write(
        tmp_path,
        "2.0,read,1,0,4096\n0.0,write,2,0,512\n2.0,write,3,0,512\n",
    )
    trace, report = csvmap_mod.parse(path, spec=INDEXED_SPEC)
    assert report.reordered == 1
    assert [r.file_id for r in trace] == [2, 1, 3]  # stable tie at t=2.0
    assert [r.time for r in trace] == [0.0, 2.0, 2.0]


def test_csv_negative_time_names_line(tmp_path):
    path = _write(tmp_path, "-1.0,read,1,0,4096\n")
    with pytest.raises(TraceError, match=r"t\.csv:1: record time"):
        csvmap_mod.parse(path, spec=INDEXED_SPEC)


def test_disk_level_csv_rejects_deletes(tmp_path):
    spec = CsvSpec(columns={"time": 0, "op": 1, "offset": 2, "size": 3},
                   header=False)
    path = _write(tmp_path, "0.0,delete,0,4096\n")
    with pytest.raises(TraceError, match=r"t\.csv:1: delete records"):
        csvmap_mod.parse(path, spec=spec)


def test_blktrace_bad_payload_names_line(tmp_path):
    path = _write(
        tmp_path,
        "8,0 1 1 0.0 99 Q R 16 + 8 [x]\n8,0 1 2 0.1 99 Q R banana + 8 [x]\n",
        name="t.blk",
    )
    with pytest.raises(TraceError, match=r"t\.blk:2: bad sector"):
        blktrace_mod.parse(path)


def test_blktrace_zero_sector_count_names_line(tmp_path):
    path = _write(tmp_path, "8,0 1 1 0.0 99 Q W 16 + 0 [x]", name="t.blk")
    with pytest.raises(TraceError, match=r"t\.blk:1: sector count"):
        blktrace_mod.parse(path)


def test_snia_truncated_line_names_line(tmp_path):
    path = _write(
        tmp_path,
        "128166372003061629,usr,0,Read,0,4096,10\n128166372004061629,usr\n",
        name="t.msr",
    )
    with pytest.raises(TraceError, match=r"t\.msr:2: expected >= 6"):
        snia_mod.parse(path)


def test_snia_zero_size_names_line(tmp_path):
    path = _write(tmp_path, "10,usr,0,Write,0,0,1\n", name="t.msr")
    with pytest.raises(TraceError, match=r"t\.msr:1: size must be > 0"):
        snia_mod.parse(path)


@pytest.mark.parametrize("name, line", [
    ("t.blk", "8,0 1 1 0.0 99 Q W 0 + 1000000000000000000 [x]"),
    ("t.msr", "10,usr,0,Write,0,1000000000000000000,1"),
], ids=["blktrace", "snia"])
def test_absurd_transfer_size_names_line(tmp_path, name, line):
    """Disk-level imports track block ownership per block: a corrupt
    size field is a parse error, not an unbounded allocation."""
    path = _write(tmp_path, line + "\n", name=name)
    parse = blktrace_mod.parse if name == "t.blk" else snia_mod.parse
    with pytest.raises(TraceError, match=rf"{name}:1: transfer size"):
        parse(path)


def test_snia_filetime_precision_survives():
    """Tick deltas far below float64 resolution at the FILETIME epoch
    still come out exact, because rebasing happens before scaling."""
    trace, _ = _import_fixture("sample_msr.csv")
    records = list(trace)
    deltas = [b.time - a.time for a, b in zip(records, records[1:])]
    # First two source ticks are exactly 1e6 ticks = 0.1 s apart.
    assert deltas[0] == pytest.approx(0.1, rel=1e-12)


def test_truncated_gzip_is_a_trace_error(tmp_path):
    payload = b"".join(
        f"{i * 10},usr,0,Read,{i * 4096},4096,10\n".encode()
        for i in range(200)
    )
    blob = gzip.compress(payload)
    path = tmp_path / "t.csv.gz"
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(TraceError, match="unreadable"):
        snia_mod.parse(path)


# -- parser totality (property-based) --------------------------------------

# Any latin-1 byte except line terminators: "\n" would add a line, and
# "\r" would split one under universal-newline decoding.
_junk_line = st.text(
    alphabet=st.characters(
        min_codepoint=0, max_codepoint=255, blacklist_characters="\r\n"
    ),
    max_size=40,
)

_number = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**18).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.just("banana"),
    st.just(""),
)

_csv_line = st.builds(
    lambda t, op, f, off, size: f"{t},{op},{f},{off},{size}",
    _number,
    st.sampled_from(["read", "WRITE", "wr", "delete", "noop", "", "re\x00ad"]),
    _number,
    _number,
    _number,
)

_blk_line = st.builds(
    lambda t, act, rwbs, sector, count:
        f"8,0 1 7 {t} 99 {act} {rwbs} {sector} + {count} [proc]",
    _number,
    st.sampled_from(["Q", "C", "G", "D", "X"]),
    st.sampled_from(["R", "W", "RM", "WS", "D", "N", ""]),
    _number,
    _number,
)

_snia_line = st.builds(
    lambda t, disk, op, off, size:
        f"{t},host,{disk},{op},{off},{size},100",
    _number,
    _number,
    st.sampled_from(["Read", "write", "Flush", ""]),
    _number,
    _number,
)


def _document(lines: list[str], newline: str) -> str:
    return "".join(line + newline for line in lines)


def _assert_total(parse, path, n_lines: int) -> None:
    """The totality contract: parse fully, or fail with line provenance."""
    try:
        trace, report = parse(path)
    except TraceError as exc:
        message = str(exc)
        assert LINE_REF.search(message) or str(path) in message, message
        return
    assert report.lines == n_lines
    assert report.lines == report.records + report.comments + report.filtered
    assert len(trace) == report.records
    times = [r.time for r in trace]
    assert times == sorted(times)
    assert all(t >= 0.0 for t in times)


@given(
    lines=st.lists(
        st.one_of(_csv_line, _junk_line, st.just(""), st.just("# comment")),
        max_size=8,
    ),
    newline=st.sampled_from(["\n", "\r\n"]),
)
def test_csv_parser_is_total(tmp_path_factory, lines, newline):
    tmp_path = tmp_path_factory.mktemp("csvtot")
    path = _write(tmp_path, _document(lines, newline))
    _assert_total(
        lambda p: csvmap_mod.parse(p, spec=INDEXED_SPEC), path, len(lines)
    )


@given(
    lines=st.lists(
        st.one_of(
            _blk_line, _junk_line, st.just("CPU0 (8,0):"), st.just("Total (8,0):")
        ),
        max_size=8,
    ),
    newline=st.sampled_from(["\n", "\r\n"]),
)
def test_blktrace_parser_is_total(tmp_path_factory, lines, newline):
    tmp_path = tmp_path_factory.mktemp("blktot")
    path = _write(tmp_path, _document(lines, newline), name="t.blk")
    _assert_total(blktrace_mod.parse, path, len(lines))


@given(
    lines=st.lists(
        st.one_of(_snia_line, _junk_line, st.just("# comment")),
        max_size=8,
    ),
    newline=st.sampled_from(["\n", "\r\n"]),
)
def test_snia_parser_is_total(tmp_path_factory, lines, newline):
    tmp_path = tmp_path_factory.mktemp("sniatot")
    path = _write(tmp_path, _document(lines, newline), name="t.msr")
    _assert_total(snia_mod.parse, path, len(lines))
