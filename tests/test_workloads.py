"""The mac/dos/hp workload generators vs their Table 3 targets."""

import dataclasses
import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.traces.record import Operation
from repro.traces.stats import compute_statistics
from repro.traces.synthetic import SyntheticWorkload
from repro.traces.workloads import (
    GAP_CHUNK,
    DosWorkload,
    HpWorkload,
    MacWorkload,
    WorkloadSpec,
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
