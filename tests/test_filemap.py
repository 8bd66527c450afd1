"""File-level to block-level preprocessing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.traces.compiled import compile_trace
from repro.traces.filemap import FileMapper, dataset_blocks
from repro.traces.record import Operation, TraceRecord
from repro.traces.trace import OPERATIONS, Trace
from repro.units import KB


def record(time, op, file_id, offset=0, size=1024):
    if op is Operation.DELETE:
        return TraceRecord(time=time, op=op, file_id=file_id)
    return TraceRecord(time=time, op=op, file_id=file_id, offset=offset, size=size)


class TestFileMapper:
    def test_first_touch_allocates_sequentially(self):
        mapper = FileMapper(KB)
        op = mapper.translate(record(0, Operation.WRITE, 1, 0, 3 * KB))
        assert op.blocks == (0, 1, 2)

    def test_same_file_same_blocks(self):
        mapper = FileMapper(KB)
        first = mapper.translate(record(0, Operation.WRITE, 1, 0, 2 * KB))
        second = mapper.translate(record(1, Operation.READ, 1, 0, 2 * KB))
        assert first.blocks == second.blocks

    def test_different_files_disjoint_blocks(self):
        mapper = FileMapper(KB)
        a = mapper.translate(record(0, Operation.WRITE, 1, 0, 2 * KB))
        b = mapper.translate(record(1, Operation.WRITE, 2, 0, 2 * KB))
        assert not set(a.blocks) & set(b.blocks)

    def test_offset_maps_to_file_block(self):
        mapper = FileMapper(KB)
        mapper.translate(record(0, Operation.WRITE, 1, 0, 4 * KB))
        op = mapper.translate(record(1, Operation.READ, 1, 2 * KB, KB))
        assert op.blocks == (2,)

    def test_unaligned_transfer_spans_blocks(self):
        mapper = FileMapper(KB)
        op = mapper.translate(record(0, Operation.WRITE, 1, 512, KB))
        assert op.nblocks == 2  # straddles the 1 KB boundary

    def test_delete_frees_blocks(self):
        mapper = FileMapper(KB)
        mapper.translate(record(0, Operation.WRITE, 1, 0, 2 * KB))
        delete = mapper.translate(record(1, Operation.DELETE, 1))
        assert delete.blocks == (0, 1)

    def test_deleted_blocks_are_recycled(self):
        mapper = FileMapper(KB)
        mapper.translate(record(0, Operation.WRITE, 1, 0, 2 * KB))
        mapper.translate(record(1, Operation.DELETE, 1))
        op = mapper.translate(record(2, Operation.WRITE, 2, 0, 2 * KB))
        assert op.blocks == (0, 1)  # lowest freed blocks first

    def test_delete_unknown_file_is_noop(self):
        mapper = FileMapper(KB)
        delete = mapper.translate(record(0, Operation.DELETE, 99))
        assert delete.blocks == ()

    def test_high_water_tracks_peak(self):
        mapper = FileMapper(KB)
        mapper.translate(record(0, Operation.WRITE, 1, 0, 4 * KB))
        mapper.translate(record(1, Operation.DELETE, 1))
        mapper.translate(record(2, Operation.WRITE, 2, 0, 2 * KB))
        assert mapper.high_water_blocks == 4

    def test_device_blocks_in_file_order(self):
        mapper = FileMapper(KB)
        mapper.translate(record(0, Operation.WRITE, 1, 2 * KB, KB))  # file block 2
        mapper.translate(record(1, Operation.WRITE, 1, 0, KB))  # file block 0
        # file block 0 allocated second -> device block 1
        assert mapper.translate(record(2, Operation.READ, 1, 0, KB)).blocks == (1,)
        assert mapper.translate(record(3, Operation.READ, 1, 2 * KB, KB)).blocks == (0,)

    def test_invalid_block_size(self):
        with pytest.raises(TraceError):
            FileMapper(0)


class TestMapTrace:
    def test_map_trace_preserves_order_and_count(self, tiny_trace):
        ops = FileMapper(tiny_trace.block_size).translate_all(tiny_trace)
        assert len(ops) == len(tiny_trace)
        assert [op.time for op in ops] == [r.time for r in tiny_trace]

    def test_dataset_blocks_counts_peak(self, tiny_trace):
        assert dataset_blocks(tiny_trace) == 3

    def test_block_ops_size_is_block_aligned(self, tiny_trace):
        for op in FileMapper(tiny_trace.block_size).translate_all(tiny_trace):
            assert op.size % tiny_trace.block_size == 0
            assert op.size == op.nblocks * tiny_trace.block_size


# -- the NumPy compiler against the per-record mapper ------------------------

@st.composite
def record_streams(draw):
    """Record streams with deletions of never-touched files, double
    deletions, re-creation after deletion, unaligned multi-block transfers
    and offsets above 2**32 (and near 2**62, where the compiler ranks the
    block indexes to keep its sort key in 64 bits)."""
    block_size = draw(st.sampled_from([1, 512, KB]))
    files = draw(st.lists(
        st.sampled_from([0, 1, 2, 7, -3, 2**40]), min_size=1, max_size=4,
        unique=True,
    ))
    offsets = st.one_of(
        st.integers(0, 8 * block_size),
        st.integers(2**32, 2**32 + 64 * block_size),
        st.integers(2**62, 2**62 + 8 * block_size),
    )
    records = []
    time = 0.0
    for _ in range(draw(st.integers(0, 60))):
        time += draw(st.sampled_from([0.0, 0.25]))
        op = draw(st.sampled_from(Operation))
        file_id = draw(st.sampled_from(files))
        if op is Operation.DELETE:
            records.append(record(time, op, file_id))
        else:
            size = draw(st.integers(1, 4 * block_size + 1))
            records.append(record(time, op, file_id, draw(offsets), size))
    return Trace("stream", records, block_size=block_size)


@settings(max_examples=100, deadline=None)
@given(trace=record_streams())
def test_compiled_trace_matches_file_mapper(trace):
    mapper = FileMapper(trace.block_size)
    ops = mapper.translate_all(trace)
    compiled = compile_trace(trace)
    # repr: the blocks must be Python ints, not NumPy scalars.
    assert repr(compiled.blocks) == repr([op.blocks for op in ops])
    assert [OPERATIONS[code] for code in compiled.op_codes.tolist()] == [
        op.op for op in ops
    ]
    assert compiled.size.tolist() == [op.size for op in ops]
    assert compiled.time.tolist() == [op.time for op in ops]
    assert compiled.file_id.tolist() == [op.file_id for op in ops]
    assert compiled.dataset_blocks == mapper.high_water_blocks
    assert compiled.n_blocks.tolist() == [len(op.blocks) for op in ops]


def test_compile_empty_and_delete_only_traces():
    assert compile_trace(Trace("empty", [])).n_ops == 0
    deletes = Trace("d", [record(0, Operation.DELETE, 4), record(1, Operation.DELETE, 4)])
    compiled = compile_trace(deletes)
    assert compiled.blocks == [(), ()]
    assert compiled.dataset_blocks == 0
