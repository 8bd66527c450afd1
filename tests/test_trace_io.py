"""Trace (de)serialisation."""

import hashlib

import pytest

from repro.errors import TraceError
from repro.traces.io import load_trace, save_trace
from repro.traces.record import Operation, TraceRecord
from repro.traces.trace import Trace
from repro.traces.workloads import workload_by_name


@pytest.fixture
def trace():
    return Trace(
        "roundtrip",
        [
            TraceRecord(time=0.0, op=Operation.WRITE, file_id=1, offset=0, size=1024),
            TraceRecord(time=0.5, op=Operation.READ, file_id=1, offset=512, size=512),
            TraceRecord(time=1.0, op=Operation.DELETE, file_id=1),
        ],
        block_size=512,
    )


def test_roundtrip_plain(tmp_path, trace):
    path = tmp_path / "trace.txt"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.name == "roundtrip"
    assert loaded.block_size == 512
    assert len(loaded) == 3
    assert loaded[1].offset == 512
    assert loaded[2].op is Operation.DELETE


def test_roundtrip_gzip(tmp_path, trace):
    path = tmp_path / "trace.txt.gz"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert len(loaded) == 3


def test_times_preserved(tmp_path, trace):
    path = tmp_path / "trace.txt"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert [r.time for r in loaded] == pytest.approx([r.time for r in trace])


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text(
        "# a comment\n"
        "\n"
        "0.0 read 1 0 1024\n"
        "# another\n"
        "1.0 write 2 0 512\n"
    )
    loaded = load_trace(path)
    assert len(loaded) == 2


def test_header_sets_name_and_block_size(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("#! name=custom block_size=2048\n0.0 read 1 0 2048\n")
    loaded = load_trace(path)
    assert loaded.name == "custom"
    assert loaded.block_size == 2048


def test_malformed_line_raises(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.0 read 1 0\n")
    with pytest.raises(TraceError):
        load_trace(path)


def test_bad_operation_raises(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.0 frobnicate 1 0 1024\n")
    with pytest.raises(TraceError):
        load_trace(path)


def test_default_name_is_stem(tmp_path):
    path = tmp_path / "mytrace.txt"
    path.write_text("0.0 read 1 0 1024\n")
    assert load_trace(path).name == "mytrace"


# -- error provenance: every parse failure names the offending line --------


def test_duplicate_header_rejected(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text(
        "#! name=one block_size=1024\n"
        "0.0 read 1 0 1024\n"
        "#! name=two block_size=512\n"
    )
    with pytest.raises(TraceError, match=r"dup\.txt:3: duplicate '#!' header"):
        load_trace(path)


def test_bad_header_block_size_names_line(tmp_path):
    path = tmp_path / "hdr.txt"
    path.write_text("# leading comment\n#! name=x block_size=banana\n")
    with pytest.raises(TraceError, match=r"hdr\.txt:2: bad block_size 'banana'"):
        load_trace(path)


def test_nonpositive_header_block_size_names_line(tmp_path):
    path = tmp_path / "hdr.txt"
    path.write_text("#! block_size=0\n")
    with pytest.raises(TraceError, match=r"hdr\.txt:1: block_size must be positive"):
        load_trace(path)


def test_malformed_line_error_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.0 read 1 0 1024\n0.5 read 1 0\n")
    with pytest.raises(TraceError, match=r"bad\.txt:2: expected 5 fields"):
        load_trace(path)


def test_record_invariant_violation_names_line(tmp_path):
    # Field types parse fine; the TraceRecord invariant (a delete carries
    # no payload) is what rejects the line — still with provenance.
    path = tmp_path / "inv.txt"
    path.write_text("0.0 read 1 0 1024\n1.0 delete 1 0 512\n")
    with pytest.raises(TraceError, match=r"inv\.txt:2: "):
        load_trace(path)


def test_zero_size_read_names_line(tmp_path):
    path = tmp_path / "zs.txt"
    path.write_text("0.0 read 1 0 0\n")
    with pytest.raises(TraceError, match=r"zs\.txt:1: "):
        load_trace(path)


def test_time_backwards_names_line(tmp_path):
    path = tmp_path / "rev.txt"
    path.write_text("1.0 read 1 0 1024\n0.5 read 1 0 1024\n")
    with pytest.raises(TraceError, match=r"rev\.txt:2: time runs backwards"):
        load_trace(path)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_non_finite_time_names_line(tmp_path, text):
    path = tmp_path / "nonfinite.txt"
    path.write_text(f"0.0 write 1 0 1024\n{text} read 1 0 1024\n")
    with pytest.raises(TraceError, match=r"nonfinite\.txt:2: record time must be finite"):
        load_trace(path)


#: sha256 of ``save_trace`` output for generated traces, taken from the
#: per-record generator: the lazy record view writes the same text.
SAVED_DIGESTS = {
    ("mac", 7, 6000): "78140c0aa6609884904452916f48d5a943ee9bb643eb762c60fb50a0cd8828e9",
    ("dos", 7, 6000): "68a9c8ec9eb619730642d5dd7ff3d89ac4aa18b120e6c992b23e202315899d4c",
}


@pytest.mark.parametrize("name, seed, n_ops", list(SAVED_DIGESTS))
def test_saved_generated_trace_digests(tmp_path, name, seed, n_ops):
    path = tmp_path / f"{name}.txt"
    save_trace(workload_by_name(name).generate(seed=seed, n_ops=n_ops), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == SAVED_DIGESTS[name, seed, n_ops]
