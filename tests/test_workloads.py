"""The mac/dos/hp workload generators vs their Table 3 targets."""

import dataclasses
import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.traces.compiled import compile_trace
from repro.traces.record import Operation, TraceRecord
from repro.traces.stats import compute_statistics
from repro.traces.synthetic import SyntheticWorkload
from repro.traces.trace import OPERATIONS, Trace
from repro.traces.workloads import (
    GAP_CHUNK,
    DosWorkload,
    HpWorkload,
    MacWorkload,
    WorkloadSpec,
    _draw_columns,
    _gap_chunk,
    workload_by_name,
)
from repro.units import KB


@pytest.fixture(scope="module")
def mac_trace():
    return MacWorkload().generate(seed=5, n_ops=20_000)


@pytest.fixture(scope="module")
def dos_trace():
    return DosWorkload().generate(seed=5, n_ops=5_000)


@pytest.fixture(scope="module")
def hp_trace():
    return HpWorkload().generate(seed=5, n_ops=5_000)


class TestTable3Targets:
    def test_mac_read_fraction(self, mac_trace):
        stats = compute_statistics(mac_trace)
        assert stats.fraction_reads == pytest.approx(0.50, abs=0.03)

    def test_dos_read_fraction(self, dos_trace):
        stats = compute_statistics(dos_trace)
        assert stats.fraction_reads == pytest.approx(0.24, abs=0.03)

    def test_hp_read_fraction(self, hp_trace):
        stats = compute_statistics(hp_trace)
        assert stats.fraction_reads == pytest.approx(0.38, abs=0.03)

    def test_mac_block_size(self, mac_trace):
        assert mac_trace.block_size == KB

    def test_dos_block_size(self, dos_trace):
        assert dos_trace.block_size == KB // 2

    def test_mac_transfer_sizes(self, mac_trace):
        stats = compute_statistics(mac_trace)
        assert stats.mean_read_blocks == pytest.approx(1.3, rel=0.15)
        assert stats.mean_write_blocks == pytest.approx(1.2, rel=0.15)

    def test_dos_transfer_sizes(self, dos_trace):
        stats = compute_statistics(dos_trace)
        assert stats.mean_read_blocks == pytest.approx(3.8, rel=0.25)
        assert stats.mean_write_blocks == pytest.approx(3.4, rel=0.25)

    def test_hp_transfer_sizes(self, hp_trace):
        stats = compute_statistics(hp_trace)
        assert stats.mean_read_blocks == pytest.approx(4.3, rel=0.25)
        assert stats.mean_write_blocks == pytest.approx(6.2, rel=0.25)

    def test_mac_interarrival_mean(self, mac_trace):
        stats = compute_statistics(mac_trace)
        assert stats.interarrival_mean_s == pytest.approx(0.078, rel=0.15)

    def test_dos_interarrival_mean(self, dos_trace):
        stats = compute_statistics(dos_trace)
        assert stats.interarrival_mean_s == pytest.approx(0.528, rel=0.2)

    def test_hp_interarrival_mean(self, hp_trace):
        stats = compute_statistics(hp_trace)
        assert stats.interarrival_mean_s == pytest.approx(11.1, rel=0.25)

    def test_interarrival_caps_respected(self, mac_trace, dos_trace, hp_trace):
        for trace, cap in ((mac_trace, 90.8), (dos_trace, 713.0), (hp_trace, 1800.0)):
            stats = compute_statistics(trace)
            assert stats.interarrival_max_s <= cap + 1e-6

    def test_only_dos_deletes(self, mac_trace, dos_trace, hp_trace):
        assert mac_trace.operation_counts()[Operation.DELETE] == 0
        assert dos_trace.operation_counts()[Operation.DELETE] > 0
        assert hp_trace.operation_counts()[Operation.DELETE] == 0


class TestGeneratorMechanics:
    def test_lookup_by_name(self):
        assert workload_by_name("mac").name == "mac"
        assert workload_by_name("hp").name == "hp"

    def test_unknown_name(self):
        with pytest.raises(TraceError):
            workload_by_name("vax")

    def test_determinism(self):
        a = MacWorkload().generate(seed=3, n_ops=300)
        b = MacWorkload().generate(seed=3, n_ops=300)
        assert [(r.time, r.file_id, r.offset) for r in a] == [
            (r.time, r.file_id, r.offset) for r in b
        ]

    def test_n_operations_from_duration(self):
        spec = MacWorkload()
        assert spec.n_operations == int(spec.duration_s / spec.interarrival_mean_s)

    def test_reads_never_target_deleted_files(self, dos_trace):
        deleted = set()
        for record in dos_trace:
            if record.op is Operation.DELETE:
                deleted.add(record.file_id)
            elif record.op is Operation.READ:
                assert record.file_id not in deleted
            elif record.op is Operation.WRITE:
                deleted.discard(record.file_id)

    def test_offsets_within_files(self, mac_trace):
        # offsets are block-aligned and inside the file's allocated size
        for record in mac_trace:
            if record.op is Operation.DELETE:
                continue
            assert record.offset % mac_trace.block_size == 0

    def test_mac_write_traffic_is_concentrated(self, mac_trace):
        """write_hot_access_fraction: writes touch far less distinct data
        than the trace as a whole (the hot write working set)."""
        written_blocks = set()
        write_events = 0
        for record in mac_trace:
            if record.op is Operation.WRITE:
                first = record.offset // KB
                last = (record.end_offset - 1) // KB
                written_blocks.update(
                    (record.file_id, index) for index in range(first, last + 1)
                )
                write_events += record.size // KB or 1
        # Heavy rewriting: each written block is overwritten many times.
        assert write_events / len(written_blocks) > 3.0
        # And the write working set is small next to all data accessed
        # (cold-read coverage keeps growing with trace length, so the bound
        # is loose at this short length).
        assert len(written_blocks) * KB < 0.75 * mac_trace.distinct_bytes()

    def test_invalid_spec_rejected(self):
        with pytest.raises(TraceError):
            WorkloadSpec(
                name="bad", duration_s=10, distinct_kbytes=10,
                read_fraction=1.5, block_size=KB,
                mean_read_blocks=1, mean_write_blocks=1,
                interarrival_mean_s=1, interarrival_max_s=10,
            )

    def test_min_max_file_blocks_validated(self):
        with pytest.raises(TraceError):
            WorkloadSpec(
                name="bad", duration_s=10, distinct_kbytes=10,
                read_fraction=0.5, block_size=KB,
                mean_read_blocks=1, mean_write_blocks=1,
                interarrival_mean_s=1, interarrival_max_s=10,
                min_file_blocks=10, max_file_blocks=5,
            )


@pytest.mark.parametrize("changes, named", [
    ({"duration_s": 0.0}, "duration_s"),
    ({"duration_s": math.inf}, "duration_s"),
    ({"interarrival_mean_s": 0}, "interarrival_mean_s"),
    ({"interarrival_mean_s": math.nan}, "interarrival_mean_s"),
    ({"interarrival_max_s": -1.0}, "interarrival_max_s"),
    ({"interarrival_max_s": math.nan}, "interarrival_max_s"),
    ({"burst_mean_scale": 0.0}, "burst_mean_scale"),
    ({"mid_mean_s": 0.0}, "mid_mean_s"),
    ({"mid_mean_s": math.inf}, "mid_mean_s"),
    ({"mid_mean_s": None, "burst_mean_scale": 2.0}, "mid_mean_s"),
    ({"burst_weight": 1.5}, "burst_weight"),
    ({"burst_weight": -0.1}, "burst_weight"),
    ({"burst_weight": math.nan}, "burst_weight"),
    ({"session_fraction": -0.01}, "session_fraction"),
    ({"session_fraction": 0.2}, "session_fraction"),
    ({"session_min_s": -1.0}, "session_min_s"),
    ({"session_min_s": 100.0, "session_max_s": 60.0}, "session_min_s"),
])
def test_gap_mixture_fields_validated(changes, named):
    with pytest.raises(TraceError, match=named):
        dataclasses.replace(MacWorkload(), **changes)


def test_negative_op_count_rejected():
    with pytest.raises(TraceError, match=r"n_ops must be >= 0, got -5"):
        MacWorkload().generate(seed=1, n_ops=-5)
    assert len(MacWorkload().generate(seed=1, n_ops=0)) == 0


def test_pure_burst_mixture_never_solves_the_mid_mean():
    spec = dataclasses.replace(
        MacWorkload(), burst_weight=1.0, mid_mean_s=None, session_fraction=0.0
    )
    assert len(spec.generate(seed=1, n_ops=100)) == 100


#: sha256 over (time.hex(), op.value, file_id, offset, size) per record,
#: taken on Python 3.11: the same seed must give the same trace on every
#: supported Python (3.12's compensated sum() once changed the gaps).
TRACE_DIGESTS = {
    ("mac", 3, 64): "5d7322f6f6317eb22b0ff387fbe12367508fc0384906e7624a0f03be7fb20c57",
    ("mac", 2**63 + 5, 4097): "9f748873b2730488149870a014ea57327e35a402620720d3d3b4888a75278e40",
    ("mac", 1, 9000): "123f405c999065ac9074af36aa037edb37cdf3d5328bb633b2e0f37bd9a84fa8",
    ("dos", 3, 64): "dc8a35c5d01514c9e37a7f1af920cdf7b705969071159168bf7c1cc1b0abf4e0",
    ("dos", 2**63 + 5, 4097): "1ee5b328abdd1a998909b18042028727f83da256ef0c4ce604de863fe1425b2f",
    ("dos", 1, 9000): "9a6c5b1cf01cabc87e75a4be4fe42f67aac00f921890e3e85def01fdf7d41f20",
    ("hp", 3, 64): "4564647ebb183c9be206626134ed6b16ee4b09730124ae261d1a512e74f86ab7",
    ("hp", 2**63 + 5, 4097): "718668cfd228e10965454342e6accefff8b8dff6f7e681df88074453d25328b1",
    ("hp", 1, 9000): "36cbd7c383280f7bc4ccee234242e403d38779b34d2b11f05c08a6e64863b9d7",
    # synth draws no gap chunks: a control that never changed.
    ("synth", 3, 64): "3f606999ae3a01906a65730990091ba31d9001960e03384e726e12b50dca3052",
    ("synth", 2**63 + 5, 4097): "ff2a9b0749333fa37500c0bef0cface153de9d85636a408b9944a926e4d0a902",
    ("synth", 1, 9000): "06dda7dc2d8f3f7c81966d2e5f87f92327a9b6c73c18b6e264d2997f315478b9",
}


@pytest.mark.parametrize("name, seed, n_ops", list(TRACE_DIGESTS))
def test_generated_trace_digests(name, seed, n_ops):
    if name == "synth":
        trace = SyntheticWorkload().generate(n_ops=n_ops, seed=seed)
    else:
        trace = workload_by_name(name).generate(seed=seed, n_ops=n_ops)
    digest = hashlib.sha256()
    for r in trace:
        digest.update(
            repr((r.time.hex(), r.op.value, r.file_id, r.offset, r.size)).encode()
        )
    assert digest.hexdigest() == TRACE_DIGESTS[name, seed, n_ops]


def _per_draw_chunk(spec: WorkloadSpec, rng: random.Random) -> list[float]:
    """The oracle: the gap chunk drawn one ``random`` call at a time."""
    burst_mean = spec.interarrival_mean_s * spec.burst_mean_scale
    raw = []
    for _ in range(GAP_CHUNK):
        draw = rng.random()
        if draw < spec.burst_weight:
            gap = rng.expovariate(1.0 / burst_mean)
        elif draw < spec.burst_weight + spec.session_fraction:
            gap = rng.uniform(spec.session_min_s, spec.session_max_s)
        else:
            mid_mean = spec.mid_mean_s
            if mid_mean is None:
                mid_mean = (
                    spec.interarrival_mean_s - spec.burst_weight * burst_mean
                ) / (1.0 - spec.burst_weight)
            gap = rng.expovariate(1.0 / mid_mean)
        raw.append(min(gap, spec.interarrival_max_s))
    total = 0.0
    for gap in raw:  # sum() as Python 3.11 folds it, uncompensated
        total += gap
    realized = total / len(raw)
    scale = spec.interarrival_mean_s / realized if realized > 0 else 1.0
    return [min(gap * scale, spec.interarrival_max_s) for gap in raw]


@st.composite
def gap_mixtures(draw):
    burst_weight = draw(st.floats(0.0, 1.0))
    mean = draw(st.floats(1e-3, 100.0))
    session_min = draw(st.floats(0.0, 50.0))
    return dataclasses.replace(
        MacWorkload(),
        interarrival_mean_s=mean,
        # From below the mean, so the cap binds before and after rescaling.
        interarrival_max_s=mean * draw(st.floats(0.5, 8.0)),
        burst_weight=burst_weight,
        burst_mean_scale=draw(st.floats(0.01, 0.99)),
        mid_mean_s=draw(st.none() | st.floats(1e-3, 100.0)),
        session_fraction=draw(st.floats(0.0, 1.0 - burst_weight)),
        session_min_s=session_min,
        session_max_s=session_min + draw(st.floats(0.0, 50.0)),
    )


SEEDS = st.one_of(
    st.just(0),
    st.integers(max_value=-1),
    st.integers(min_value=2**32, max_value=2**40),
    st.integers(min_value=2**63, max_value=2**70),
)


@settings(max_examples=50, deadline=None)
@given(spec=gap_mixtures(), seed=SEEDS)
@example(
    spec=dataclasses.replace(
        MacWorkload(), burst_weight=1.0, mid_mean_s=None, session_fraction=0.0
    ),
    seed=0,
)
def test_gap_chunk_matches_per_draw_loop(spec, seed):
    fast, slow = random.Random(seed), random.Random(seed)
    for _ in range(2):
        chunk = _gap_chunk(spec, fast)
        assert all(type(gap) is float for gap in chunk)
        assert [gap.hex() for gap in chunk] == [
            gap.hex() for gap in _per_draw_chunk(spec, slow)
        ]
    assert fast.getstate() == slow.getstate()


# -- the column generator against the per-record loop it replaced ----------

class _WorkloadGenerator:
    """The oracle: one record object per operation, each helper a call.

    The per-record generator ``WorkloadSpec.generate`` used before traces
    were columnar.
    """

    def __init__(self, spec: WorkloadSpec, rng: random.Random) -> None:
        self.spec = spec
        self.rng = rng
        self._build_files()
        self._build_popularity()
        self._cursor: dict[int, int] = {}  # file -> next sequential block
        self.deleted: set[int] = set()
        self._gaps: list[float] = []
        self._gap_index = 0

    def _build_files(self) -> None:
        spec = self.spec
        target_blocks = spec.distinct_kbytes * KB // spec.block_size
        sizes: list[int] = []
        total = 0
        while total < target_blocks:
            size = self.rng.randint(spec.min_file_blocks, spec.max_file_blocks)
            size = min(size, int(target_blocks - total)) or 1
            sizes.append(size)
            total += size
        self.file_blocks = sizes

    def _build_popularity(self) -> None:
        """Zipf weights over a shuffled file ranking, plus the hot set."""
        spec = self.spec
        n = len(self.file_blocks)
        ranks = list(range(n))
        self.rng.shuffle(ranks)
        weights = [1.0 / (rank + 1) ** spec.zipf_exponent for rank in range(n)]
        cumulative = []
        running = 0.0
        for weight in weights:
            running += weight
            cumulative.append(running)
        self.files_by_rank = ranks
        self.cumulative = cumulative
        self.total_weight = running

        self.hot_files: list[int] = []
        self.cold_files: list[int] = []
        if spec.hot_access_fraction is not None:
            target_blocks = spec.hot_data_fraction * sum(self.file_blocks)
            hot_blocks = 0
            for file_id in ranks:
                if hot_blocks < target_blocks:
                    self.hot_files.append(file_id)
                    hot_blocks += self.file_blocks[file_id]
                else:
                    self.cold_files.append(file_id)
            if not self.cold_files:  # degenerate: everything is hot
                self.cold_files = list(self.hot_files)
        self._hot_set = set(self.hot_files)

    # -- draws ----------------------------------------------------------------

    def _interarrival(self) -> float:
        """Next inter-arrival gap, drawn ``GAP_CHUNK`` at a time."""
        if self._gap_index >= len(self._gaps):
            self._gaps = _gap_chunk(self.spec, self.rng)
            self._gap_index = 0
        gap = self._gaps[self._gap_index]
        self._gap_index += 1
        return gap

    def _choose_file(self, op: Operation = Operation.READ) -> int:
        spec = self.spec
        if spec.hot_access_fraction is not None:
            hot_fraction = spec.hot_access_fraction
            if op is Operation.WRITE and spec.write_hot_access_fraction is not None:
                hot_fraction = spec.write_hot_access_fraction
            if self.rng.random() < hot_fraction:
                return self.rng.choice(self.hot_files)
            return self.rng.choice(self.cold_files)
        draw = self.rng.random() * self.total_weight
        low, high = 0, len(self.cumulative) - 1
        while low < high:
            mid = (low + high) // 2
            if self.cumulative[mid] < draw:
                low = mid + 1
            else:
                high = mid
        return self.files_by_rank[low]

    def _choose_size_blocks(self, mean_blocks: float, file_size: int) -> int:
        """Two-component size mix with the requested overall mean.

        Most transfers come from a shifted-geometric body; a small
        ``large_fraction`` come from a heavy component with mean
        ``large_mean_blocks``.  The body mean is solved so the mixture hits
        ``mean_blocks`` overall.
        """
        spec = self.spec
        if spec.large_fraction > 0 and self.rng.random() < spec.large_fraction:
            blocks = self._geometric(spec.large_mean_blocks)
        else:
            body_mean = mean_blocks
            if spec.large_fraction > 0:
                body_mean = (
                    mean_blocks - spec.large_fraction * spec.large_mean_blocks
                ) / (1.0 - spec.large_fraction)
            blocks = self._geometric(max(1.0, body_mean))
        return max(1, min(blocks, file_size))

    def _geometric(self, mean_blocks: float) -> int:
        """Shifted geometric draw with the given mean (>= 1)."""
        if mean_blocks <= 1.0:
            return 1
        success = 1.0 / mean_blocks
        draw = self.rng.random()
        return 1 + int(math.log(max(draw, 1e-12)) / math.log(1.0 - success))

    def _choose_operation(self) -> Operation:
        draw = self.rng.random()
        if draw < self.spec.read_fraction:
            return Operation.READ
        if draw < self.spec.read_fraction + self.spec.delete_fraction:
            return Operation.DELETE
        return Operation.WRITE

    # -- main loop -------------------------------------------------------------

    def run(self, n_ops: int, seed: int) -> Trace:
        spec = self.spec
        records: list[TraceRecord] = []
        clock = 0.0
        last_file: int | None = None
        while len(records) < n_ops:
            clock += self._interarrival()
            op = self._choose_operation()
            repeatable = (
                last_file is not None
                and last_file not in self.deleted
                # Write bursts re-target the hot working set: a write does
                # not inherit a cold file from a preceding cold read, which
                # would smear write traffic over cold data.
                and (
                    op is not Operation.WRITE
                    or spec.write_hot_access_fraction is None
                    or last_file in self._hot_set
                )
            )
            if spec.hot_drift_ops and len(records) % spec.hot_drift_ops == 0:
                self._drift_hot_set()
            if repeatable and self.rng.random() < spec.repeat_fraction:
                file_id = last_file
            else:
                file_id = self._choose_file(op)
            last_file = file_id
            file_size = self.file_blocks[file_id]

            if op is Operation.DELETE:
                if file_id in self.deleted or len(self.deleted) >= len(self.file_blocks) - 1:
                    continue
                self.deleted.add(file_id)
                self._cursor.pop(file_id, None)
                records.append(TraceRecord(time=clock, op=op, file_id=file_id))
                continue

            if file_id in self.deleted:
                if op is Operation.READ:
                    continue  # cannot read a deleted file; skip the draw
                self.deleted.discard(file_id)  # a write recreates the file

            mean = spec.mean_read_blocks if op is Operation.READ else spec.mean_write_blocks
            nblocks = self._choose_size_blocks(mean, file_size)
            offset_block = self._choose_offset_block(file_id, file_size, nblocks)
            records.append(
                TraceRecord(
                    time=clock,
                    op=op,
                    file_id=file_id,
                    offset=offset_block * spec.block_size,
                    size=nblocks * spec.block_size,
                )
            )
        return Trace(
            spec.name,
            records,
            block_size=spec.block_size,
            metadata={"generator": "WorkloadSpec", "seed": seed},
        )

    def _drift_hot_set(self) -> None:
        """Swap one hot file for a cold one (working-set drift)."""
        if not self.hot_files or not self.cold_files:
            return
        hot_index = self.rng.randrange(len(self.hot_files))
        cold_index = self.rng.randrange(len(self.cold_files))
        hot_file = self.hot_files[hot_index]
        cold_file = self.cold_files[cold_index]
        self.hot_files[hot_index] = cold_file
        self.cold_files[cold_index] = hot_file
        self._hot_set.discard(hot_file)
        self._hot_set.add(cold_file)

    def _choose_offset_block(self, file_id: int, file_size: int, nblocks: int) -> int:
        limit = file_size - nblocks
        if limit <= 0:
            self._cursor[file_id] = 0
            return 0
        cursor = self._cursor.get(file_id)
        if cursor is not None and cursor <= limit and (
            self.rng.random() < self.spec.sequential_fraction
        ):
            offset = cursor
        else:
            offset = self.rng.randint(0, limit)
        self._cursor[file_id] = (offset + nblocks) % max(1, file_size)
        return offset


@st.composite
def workload_specs(draw):
    """Specs over every branch of the generator: the hot/cold overlay on
    and off, write-hot, drift, repeats, the large size component and
    deletions, with few small files so deletions run out of files."""
    hot = draw(st.none() | st.floats(0.0, 1.0))
    large_fraction = draw(st.sampled_from([0.0, 0.0, 0.02, 0.3]))
    read_fraction = draw(st.floats(0.0, 1.0))
    return dataclasses.replace(
        MacWorkload(),
        distinct_kbytes=draw(st.integers(1, 64)),
        min_file_blocks=draw(st.integers(1, 4)),
        max_file_blocks=draw(st.integers(4, 24)),
        read_fraction=read_fraction,
        delete_fraction=draw(st.sampled_from([0.0, 0.05, 0.4])) * (1.0 - read_fraction),
        mean_read_blocks=draw(st.floats(0.5, 6.0)),
        mean_write_blocks=draw(st.floats(0.5, 6.0)),
        zipf_exponent=draw(st.floats(0.0, 1.5)),
        hot_access_fraction=hot,
        hot_data_fraction=draw(st.floats(0.01, 1.0)),  # some file is hot
        write_hot_access_fraction=draw(st.none() | st.floats(0.0, 1.0)),
        repeat_fraction=draw(st.floats(0.0, 1.0)),
        hot_drift_ops=draw(st.sampled_from([0, 1, 7])),
        sequential_fraction=draw(st.floats(0.0, 1.0)),
        large_fraction=large_fraction,
        large_mean_blocks=draw(st.floats(0.5, 40.0)),
    )


@settings(max_examples=100, deadline=None)
@given(spec=workload_specs(), seed=SEEDS, n_ops=st.integers(0, 600))
@example(spec=DosWorkload(), seed=1, n_ops=5000)
@example(spec=MacWorkload(), seed=2, n_ops=5000)
def test_draw_columns_match_per_record_loop(spec, seed, n_ops):
    fast, slow = random.Random(seed), random.Random(seed)
    columns = _draw_columns(spec, fast, n_ops)
    oracle = _WorkloadGenerator(spec, slow).run(n_ops, seed)
    assert columns == tuple(column.tolist() for column in oracle.columns)
    assert fast.getstate() == slow.getstate()


#: sha256 of ``compile_trace`` output (request kinds, device blocks, sizes,
#: ``dataset_blocks``) for the ``TRACE_DIGESTS`` traces and full-scale
#: ``dos``, taken from the per-record ``FileMapper`` compiler.
COMPILE_DIGESTS = {
    ("mac", 3, 64): "40838c5c63ec025b3b584d9a8bf70121e120302314f96c24ab2e00e610b270f4",
    ("mac", 2**63 + 5, 4097): "badfc130b0a5220b77270835f5b34662023aec23764089e179c55b8cc727ba29",
    ("mac", 1, 9000): "4dc51c178a97c1869f818110ec9cba4cf7e0ae52bacc734461c60cfad7bb0f94",
    ("dos", 3, 64): "92dca22a9ea7ce951cec267e3a9be14e32d59888b77d2a17f39c4287122856a0",
    ("dos", 2**63 + 5, 4097): "dc8898a75288a219583ce6aa81d6f251057f4bbf1fc181cfa4e7f69f66a66b46",
    ("dos", 1, 9000): "b4d0a08835144d948653a0c8215cd0565999beeb680a44b860acdeef82e3f28d",
    ("dos", 1, 10_200): "15fcb7c40b344bfec47dc0d9343d9c6d8f7ce4688ea837416e62a7dbde22aec0",
    ("hp", 3, 64): "90992ff8e980accdfeb899ef337b4c786a8d36e01ee8fbf683ee502c2920812b",
    ("hp", 2**63 + 5, 4097): "8f3882042c09d1f3c19b6c3b585c81dee508c0ce893e05013235235e0f021d98",
    ("hp", 1, 9000): "a242b519359908fc92f3071138a1cb13764c1dc76244bd8e6629dee1fc94b20e",
    ("synth", 3, 64): "2e94b192d941e4146ac898f0294eea29546244acd294d9546b8bc032cd06f363",
    ("synth", 2**63 + 5, 4097): "fbdb1e16b72d9a3d23e2e1247ef88aa88ec770f134f54f7b424c13bd9904d4f1",
    ("synth", 1, 9000): "475e9d7cc3d5b3041432669b81a3716783c1f9455add184c13e20e76ec7dfcc8",
}


@pytest.mark.parametrize("name, seed, n_ops", list(COMPILE_DIGESTS))
def test_compiled_trace_digests(name, seed, n_ops):
    if name == "synth":
        trace = SyntheticWorkload().generate(n_ops=n_ops, seed=seed)
    else:
        trace = workload_by_name(name).generate(seed=seed, n_ops=n_ops)
    compiled = compile_trace(trace)
    digest = hashlib.sha256()
    for code, blocks, size in zip(
        compiled.op_codes.tolist(), compiled.blocks, compiled.size.tolist()
    ):
        digest.update(repr((OPERATIONS[code].value, blocks, size)).encode())
    digest.update(repr(compiled.dataset_blocks).encode())
    assert digest.hexdigest() == COMPILE_DIGESTS[name, seed, n_ops]


@pytest.mark.parametrize("name", ["mac", "dos", "hp"])
def test_record_view_matches_per_record_generator(name):
    spec = workload_by_name(name)
    trace = spec.generate(seed=4, n_ops=3000)
    oracle = _WorkloadGenerator(spec, random.Random(4)).run(3000, 4)
    # repr, not ==: a NumPy scalar compares equal to a float but prints
    # differently, so it would change the text export.
    assert repr(trace.records) == repr(oracle.records)
    assert (trace.name, trace.block_size, trace.metadata) == (
        oracle.name, oracle.block_size, oracle.metadata
    )
