"""The paper's synth workload generator (section 4.1)."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.traces.record import Operation, TraceRecord
from repro.traces.synthetic import SyntheticWorkload
from repro.traces.trace import Trace
from repro.units import KB


@pytest.fixture(scope="module")
def trace():
    return SyntheticWorkload().generate(n_ops=6000, seed=1)


def test_dataset_geometry():
    workload = SyntheticWorkload()
    assert workload.n_files == 192  # 6 MB of 32 KB files


def test_operation_mix(trace):
    counts = trace.operation_counts()
    total = len(trace)
    assert counts[Operation.READ] / total == pytest.approx(0.60, abs=0.03)
    assert counts[Operation.WRITE] / total == pytest.approx(0.35, abs=0.03)
    assert counts[Operation.DELETE] / total == pytest.approx(0.05, abs=0.02)


def test_sizes_within_file_bounds(trace):
    for record in trace:
        if record.op is not Operation.DELETE:
            assert 0 < record.size <= 32 * KB
            assert record.end_offset <= 32 * KB


def test_small_size_bucket_fraction(trace):
    sizes = [r.size for r in trace if r.op is not Operation.DELETE]
    small = sum(1 for s in sizes if s == 512)
    # 40% of accesses are 0.5 KB (erase-recreate writes dilute slightly).
    assert small / len(sizes) == pytest.approx(0.40, abs=0.06)


def test_large_size_bucket_fraction(trace):
    sizes = [r.size for r in trace if r.op is not Operation.DELETE]
    large = sum(1 for s in sizes if s > 16 * KB)
    assert large / len(sizes) == pytest.approx(0.20, abs=0.06)


def test_hot_cold_skew(trace):
    workload = SyntheticWorkload()
    n_hot = round(workload.n_files * workload.hot_data_fraction)
    hot_accesses = sum(1 for r in trace if r.file_id < n_hot)
    assert hot_accesses / len(trace) == pytest.approx(7 / 8, abs=0.05)


def test_interarrival_bimodal(trace):
    gaps = [trace[i + 1].time - trace[i].time for i in range(len(trace) - 1)]
    mean = sum(gaps) / len(gaps)
    # 90% at ~10 ms + 10% at ~3 s => mean ~ 0.31 s.
    assert 0.15 < mean < 0.6
    assert max(gaps) > 1.0  # tail draws present


def test_write_after_erase_recreates_whole_file(trace):
    erased = set()
    seen = False
    for record in trace:
        if record.op is Operation.DELETE:
            erased.add(record.file_id)
        elif record.op is Operation.WRITE and record.file_id in erased:
            assert record.offset == 0
            assert record.size == 32 * KB
            erased.discard(record.file_id)
            seen = True
        elif record.op is Operation.READ:
            assert record.file_id not in erased
    assert seen, "no erase-then-write sequence exercised"


def test_determinism():
    a = SyntheticWorkload().generate(n_ops=500, seed=9)
    b = SyntheticWorkload().generate(n_ops=500, seed=9)
    assert [(r.time, r.op, r.file_id, r.offset, r.size) for r in a] == [
        (r.time, r.op, r.file_id, r.offset, r.size) for r in b
    ]


def test_different_seeds_differ():
    a = SyntheticWorkload().generate(n_ops=500, seed=1)
    b = SyntheticWorkload().generate(n_ops=500, seed=2)
    assert [r.file_id for r in a] != [r.file_id for r in b]


def test_invalid_fractions_rejected():
    with pytest.raises(TraceError):
        SyntheticWorkload(read_fraction=0.8, write_fraction=0.3)


def test_misaligned_total_rejected():
    with pytest.raises(TraceError):
        SyntheticWorkload(total_bytes=100 * KB, file_bytes=32 * KB)


def test_negative_op_count_rejected():
    with pytest.raises(TraceError, match=r"n_ops must be >= 0, got -5"):
        SyntheticWorkload().generate(-5)
    assert len(SyntheticWorkload().generate(0)) == 0


# -- the column generator against the per-record loop it replaced ----------


class _PerRecordSynth:
    """The oracle: ``SyntheticWorkload.generate`` as it was before traces
    were columnar, one record object per operation, each draw a helper."""

    def __init__(self, workload: SyntheticWorkload) -> None:
        self.workload = workload

    def __getattr__(self, name: str):
        return getattr(self.workload, name)

    def generate(self, n_ops: int, seed: int = 0, block_size: int = 512) -> Trace:
        """Generate a trace of ``n_ops`` operations.

        Erased files are recreated in full (one ``file_bytes`` write) the
        next time the workload writes to them, per the paper; reads are
        redirected away from currently-erased files.
        """
        rng = random.Random(seed)
        n_files = self.n_files
        n_hot = max(1, round(n_files * self.hot_data_fraction))
        erased: set[int] = set()

        records: list[TraceRecord] = []
        clock = 0.0
        for _ in range(n_ops):
            clock += self._interarrival(rng)
            op = self._choose_operation(rng)
            file_id = self._choose_file(rng, n_files, n_hot)

            if op is Operation.DELETE:
                if len(erased) >= n_files - 1:
                    continue  # never erase the entire dataset
                while file_id in erased:
                    file_id = self._choose_file(rng, n_files, n_hot)
                erased.add(file_id)
                records.append(
                    TraceRecord(time=clock, op=op, file_id=file_id)
                )
                continue

            if op is Operation.WRITE and file_id in erased:
                # First write after an erase recreates the whole file.
                erased.discard(file_id)
                records.append(
                    TraceRecord(
                        time=clock,
                        op=op,
                        file_id=file_id,
                        offset=0,
                        size=self.file_bytes,
                    )
                )
                continue

            if op is Operation.READ and file_id in erased:
                file_id = self._live_file(rng, n_files, n_hot, erased)

            size = self._choose_size(rng, block_size)
            offset = self._choose_offset(rng, size, block_size)
            records.append(
                TraceRecord(time=clock, op=op, file_id=file_id, offset=offset, size=size)
            )

        return Trace(
            self.name,
            records,
            block_size=block_size,
            metadata={"generator": "SyntheticWorkload", "seed": seed},
        )

    # -- draws ----------------------------------------------------------------

    def _interarrival(self, rng: random.Random) -> float:
        if rng.random() < self.burst_fraction:
            return rng.uniform(0.0, 2.0 * self.burst_mean_s)
        return self.pause_offset_s + rng.expovariate(1.0 / self.pause_mean_s)

    def _choose_operation(self, rng: random.Random) -> Operation:
        draw = rng.random()
        if draw < self.read_fraction:
            return Operation.READ
        if draw < self.read_fraction + self.write_fraction:
            return Operation.WRITE
        return Operation.DELETE

    def _choose_file(self, rng: random.Random, n_files: int, n_hot: int) -> int:
        if rng.random() < self.hot_access_fraction:
            return rng.randrange(n_hot)
        return n_hot + rng.randrange(n_files - n_hot)

    def _live_file(
        self, rng: random.Random, n_files: int, n_hot: int, erased: set[int]
    ) -> int:
        while True:
            candidate = self._choose_file(rng, n_files, n_hot)
            if candidate not in erased:
                return candidate

    def _choose_size(self, rng: random.Random, block_size: int) -> int:
        draw = rng.random()
        if draw < self.small_size_fraction:
            return 512
        if draw < self.small_size_fraction + self.medium_size_fraction:
            size = rng.randint(512 + 1, 16 * KB)
        else:
            size = rng.randint(16 * KB + 1, self.file_bytes)
        return max(block_size, (size // block_size) * block_size)

    def _choose_offset(self, rng: random.Random, size: int, block_size: int) -> int:
        max_offset = self.file_bytes - size
        if max_offset <= 0:
            return 0
        slots = max_offset // block_size
        return rng.randint(0, slots) * block_size


@st.composite
def synth_workloads(draw):
    read_fraction = draw(st.floats(0.0, 1.0))
    small = draw(st.floats(0.0, 1.0))
    return dataclasses.replace(
        SyntheticWorkload(),
        total_bytes=draw(st.integers(2, 24)) * 32 * KB,
        # Both sides reachable, and at least one cold file: a redraw loop
        # over erased files ends.
        hot_access_fraction=draw(st.floats(0.05, 0.95)),
        hot_data_fraction=draw(st.floats(0.01, 0.5)),
        read_fraction=read_fraction,
        write_fraction=draw(st.floats(0.0, 1.0)) * (1.0 - read_fraction),
        small_size_fraction=small,
        medium_size_fraction=draw(st.floats(0.0, 1.0)) * (1.0 - small),
        burst_fraction=draw(st.floats(0.0, 1.0)),
        burst_mean_s=draw(st.floats(1e-4, 1.0)),
        pause_offset_s=draw(st.floats(0.0, 1.0)),
        pause_mean_s=draw(st.floats(1e-3, 10.0)),
    )


@settings(max_examples=60, deadline=None)
@given(workload=synth_workloads(), seed=st.integers(0, 2**70),
       n_ops=st.integers(0, 800), block_size=st.sampled_from([512, 1024, 4096]))
def test_generate_matches_per_record_loop(workload, seed, n_ops, block_size):
    trace = workload.generate(n_ops=n_ops, seed=seed, block_size=block_size)
    oracle = _PerRecordSynth(workload).generate(n_ops, seed, block_size)
    assert [column.tolist() for column in trace.columns] == [
        column.tolist() for column in oracle.columns
    ]
    assert trace.records == oracle.records
