"""Trace record types and the Trace container."""

import math
import pickle

import pytest

from repro.errors import TraceError
from repro.traces.record import BlockOp, Operation, TraceRecord
from repro.traces.trace import OPERATIONS, READ, Trace
from repro.traces.workloads import MacWorkload
from repro.units import KB


class TestTraceRecord:
    def test_basic_construction(self):
        record = TraceRecord(time=1.5, op=Operation.READ, file_id=3, offset=512, size=1024)
        assert record.end_offset == 1536

    def test_negative_time_rejected(self):
        with pytest.raises(TraceError):
            TraceRecord(time=-0.1, op=Operation.READ, file_id=0, size=1)

    def test_negative_offset_rejected(self):
        with pytest.raises(TraceError):
            TraceRecord(time=0, op=Operation.READ, file_id=0, offset=-1, size=1)

    def test_zero_size_read_rejected(self):
        with pytest.raises(TraceError):
            TraceRecord(time=0, op=Operation.READ, file_id=0, size=0)

    def test_zero_size_write_rejected(self):
        with pytest.raises(TraceError):
            TraceRecord(time=0, op=Operation.WRITE, file_id=0, size=0)

    def test_delete_must_have_zero_size(self):
        with pytest.raises(TraceError):
            TraceRecord(time=0, op=Operation.DELETE, file_id=0, size=10)

    def test_delete_with_zero_size_ok(self):
        record = TraceRecord(time=0, op=Operation.DELETE, file_id=0)
        assert record.size == 0

    def test_records_are_immutable(self):
        record = TraceRecord(time=0, op=Operation.READ, file_id=0, size=1)
        with pytest.raises(AttributeError):
            record.size = 2


class TestBlockOp:
    def test_nblocks(self):
        op = BlockOp(time=0, op=Operation.READ, file_id=1, blocks=(5, 6, 7), size=3072)
        assert op.nblocks == 3

    def test_read_needs_blocks(self):
        with pytest.raises(TraceError):
            BlockOp(time=0, op=Operation.READ, file_id=1, blocks=(), size=0)

    def test_delete_may_have_no_blocks(self):
        op = BlockOp(time=0, op=Operation.DELETE, file_id=1)
        assert op.nblocks == 0


class TestTrace:
    def test_length_and_iteration(self, tiny_trace):
        assert len(tiny_trace) == 4
        assert [record.op for record in tiny_trace][0] is Operation.WRITE

    def test_indexing(self, tiny_trace):
        assert tiny_trace[1].op is Operation.READ

    def test_duration(self, tiny_trace):
        assert tiny_trace.duration == pytest.approx(0.3)

    def test_empty_trace_duration(self):
        assert Trace("empty", []).duration == 0.0

    def test_time_must_be_monotone(self):
        records = [
            TraceRecord(time=1.0, op=Operation.READ, file_id=0, size=1),
            TraceRecord(time=0.5, op=Operation.READ, file_id=0, size=1),
        ]
        with pytest.raises(TraceError):
            Trace("bad", records)

    def test_equal_times_allowed(self):
        records = [
            TraceRecord(time=1.0, op=Operation.READ, file_id=0, size=1),
            TraceRecord(time=1.0, op=Operation.READ, file_id=1, size=1),
        ]
        trace = Trace("ties", records)
        assert len(trace) == 2

    def test_block_size_must_be_positive(self):
        with pytest.raises(TraceError):
            Trace("bad", [], block_size=0)

    def test_file_ids(self, tiny_trace):
        assert tiny_trace.file_ids() == {1, 2}

    def test_distinct_bytes_counts_unique_blocks(self, tiny_trace):
        # file 1: blocks 0,1 (write 2 KB) re-read; file 2: block 0.
        assert tiny_trace.distinct_bytes() == 3 * KB

    def test_distinct_bytes_ignores_deletes(self):
        records = [
            TraceRecord(time=0, op=Operation.WRITE, file_id=1, size=1024),
            TraceRecord(time=1, op=Operation.DELETE, file_id=1),
        ]
        trace = Trace("d", records, block_size=KB)
        assert trace.distinct_bytes() == KB

    def test_operation_counts(self, tiny_trace):
        counts = tiny_trace.operation_counts()
        assert counts[Operation.READ] == 2
        assert counts[Operation.WRITE] == 2
        assert counts[Operation.DELETE] == 0

    def test_split_warm_sizes(self, tiny_trace):
        warm, rest = tiny_trace.split_warm(0.25)
        assert len(warm) == 1
        assert len(rest) == 3

    def test_split_warm_zero_fraction(self, tiny_trace):
        warm, rest = tiny_trace.split_warm(0.0)
        assert len(warm) == 0
        assert len(rest) == 4

    def test_split_warm_invalid_fraction(self, tiny_trace):
        with pytest.raises(TraceError):
            tiny_trace.split_warm(1.0)


# -- the columns and the lazy record view ------------------------------------

GOOD = (0.0, Operation.WRITE, 1, 0, KB)


@pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
def test_record_time_must_be_finite(time):
    with pytest.raises(TraceError, match="record time must be finite"):
        TraceRecord(time=time, op=Operation.READ, file_id=0, size=1)


def vars_of(record: TraceRecord) -> tuple:
    return record.time, record.op, record.file_id, record.offset, record.size


def _columns(rows):
    time, op, file_id, offset, size = zip(*rows)
    return time, [OPERATIONS.index(o) for o in op], file_id, offset, size


@pytest.mark.parametrize("row", [
    (-0.1, Operation.READ, 0, 0, 1),
    (math.nan, Operation.READ, 0, 0, 1),
    (math.inf, Operation.WRITE, 0, 0, 1),
    (-math.inf, Operation.DELETE, 0, 0, 0),
    (1.0, Operation.READ, 0, -1, 1),
    (1.0, Operation.DELETE, 0, 0, 10),
    (1.0, Operation.READ, 0, 0, 0),
    (1.0, Operation.WRITE, 0, 0, -5),
], ids=["negative", "nan", "inf", "-inf", "offset", "delete-size", "read-size",
        "write-size"])
def test_from_columns_raises_the_record_error(row):
    with pytest.raises(TraceError) as expected:
        TraceRecord(*row)
    with pytest.raises(TraceError) as raised:
        Trace.from_columns("bad", *_columns([GOOD, row, (-1.0, *GOOD[1:])]))
    assert str(raised.value) == str(expected.value)


def test_from_columns_raises_the_time_order_error():
    rows = [GOOD, (2.0, *GOOD[1:]), (1.5, *GOOD[1:])]
    with pytest.raises(TraceError) as expected:
        Trace("bad", [TraceRecord(*row) for row in rows])
    with pytest.raises(TraceError) as raised:
        Trace.from_columns("bad", *_columns(rows))
    assert str(raised.value) == str(expected.value)
    assert "record 2 goes back in time (1.5 < 2.0)" in str(raised.value)


def test_from_columns_rejects_bad_op_codes_and_ragged_columns():
    with pytest.raises(TraceError, match="record 1 has op code 3"):
        Trace.from_columns("bad", [0.0, 1.0], [READ, 3], [0, 0], [0, 0], [1, 1])
    with pytest.raises(TraceError, match="equal length"):
        Trace.from_columns("bad", [0.0, 1.0], [READ], [0, 0], [0, 0], [1, 1])
    with pytest.raises(TraceError, match="64 bits"):
        Trace.from_columns("bad", [0.0], [READ], [0], [2**64], [1])


def test_from_columns_equals_records(tiny_trace):
    trace = Trace.from_columns(
        "tiny", *_columns([vars_of(r) for r in tiny_trace]),
        block_size=tiny_trace.block_size,
    )
    assert trace.records == tiny_trace.records
    assert [c.tolist() for c in trace.columns] == [
        c.tolist() for c in tiny_trace.columns
    ]


def test_record_view_holds_python_scalars():
    trace = MacWorkload().generate(seed=1, n_ops=300)
    assert trace._records is None  # nothing built until asked
    for record in trace:
        assert type(record.time) is float
        assert type(record.op) is Operation
        assert all(type(v) is int for v in vars_of(record)[2:])
    assert trace.records is trace.records
    assert trace[3] is trace.records[3]


def test_columns_are_read_only(tiny_trace):
    for column in tiny_trace.columns:
        with pytest.raises(ValueError):
            column[0] = 0
    warm, rest = tiny_trace.split_warm(0.5)
    with pytest.raises(ValueError):
        rest.columns[0][0] = 0.0


def test_pickle_keeps_columns_only(tiny_trace):
    from repro.traces.compiled import compile_trace

    before = pickle.dumps(tiny_trace)
    compile_trace(tiny_trace)
    assert pickle.dumps(tiny_trace) == before
    loaded = pickle.loads(before)
    assert not hasattr(loaded, "_compiled_ops")
    assert loaded.records == tiny_trace.records
    assert (loaded.name, loaded.block_size) == ("tiny", tiny_trace.block_size)
