"""Statistical stand-ins for the paper's ``mac``, ``dos``, and ``hp`` traces.

The original traces (PowerBook Duo file-level traces, Kester Li's Windows
3.1 traces, and the Ruemmler & Wilkes HP-UX disk traces) are not publicly
archived.  Following the substitution rule in DESIGN.md section 1, each is
replaced by a seeded synthetic generator matched to every first-order
statistic the paper reports for it in Table 3:

================================  =======  =======  ========
statistic                           mac      dos      hp
================================  =======  =======  ========
duration                           3.5 h    1.5 h    4.4 days
distinct Kbytes accessed           22,000   16,300   32,000
fraction of reads                  0.50     0.24     0.38
block size (Kbytes)                1        0.5      1
mean read size (blocks)            1.3      3.8      4.3
mean write size (blocks)           1.2      3.4      6.2
inter-arrival mean (s)             0.078    0.528    11.1
inter-arrival max (s)              90.8     713.0    30 min
inter-arrival sigma (s)            0.57     10.8     112.3
deletions                          no       yes      no
================================  =======  =======  ========

Locality — the one dimension Table 3 does not pin down — is modelled with a
Zipf-like file-popularity distribution (hot files get most accesses), except
for ``hp``, whose records sit *below* the buffer cache in the original
system, so its locality has already been largely stripped; it draws files
closer to uniformly and is simulated with no DRAM cache, exactly as in the
paper.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError
from repro.traces.trace import DELETE, READ, WRITE, Trace
from repro.units import KB

#: Inter-arrival gaps drawn, and rescaled to the target mean, at a time.
GAP_CHUNK = 4096


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameter set for a Table 3-shaped synthetic workload.

    The generator draws, per operation: an inter-arrival gap from a
    two-component exponential mixture (bursty foreground + heavy pauses), an
    operation kind, a file from a Zipf-ranked popularity distribution, a
    block-aligned transfer size from a shifted-geometric distribution with
    the target mean, and an offset uniform within the file.
    """

    name: str
    duration_s: float
    distinct_kbytes: int
    read_fraction: float
    block_size: int
    mean_read_blocks: float
    mean_write_blocks: float
    interarrival_mean_s: float
    interarrival_max_s: float
    #: fraction of gaps drawn from the bursty (short) component
    burst_weight: float = 0.9
    #: mean of the bursty component, as a fraction of the overall mean
    burst_mean_scale: float = 0.2
    #: mean of the mid-length pause component (seconds); ``None`` solves it
    #: from the overall target mean (legacy two-component behaviour)
    mid_mean_s: float | None = None
    #: fraction of gaps that are long user-idle sessions (think-time,
    #: meetings); these are what let the disk spin down
    session_fraction: float = 0.0
    #: uniform range of session gaps, seconds
    session_min_s: float = 10.0
    session_max_s: float = 60.0
    delete_fraction: float = 0.0
    #: Zipf exponent for file popularity (0 = uniform)
    zipf_exponent: float = 0.9
    #: optional hot/cold overlay: fraction of accesses steered at the hot
    #: file set (``None`` = pure Zipf).  Buffer-cache hit rates in real
    #: file-level traces come from a small working set; Table 3 does not
    #: pin locality, so it is an explicit, documented knob.
    hot_access_fraction: float | None = None
    #: fraction of the dataset considered hot
    hot_data_fraction: float = 0.1
    #: hot-access fraction for WRITES specifically (``None`` = same as
    #: ``hot_access_fraction``).  Personal-computer write traffic is far
    #: more concentrated than read traffic (the same documents, mail files,
    #: and caches are rewritten constantly), and this concentration is what
    #: lets a log-structured flash cleaner find nearly-dead segments.
    write_hot_access_fraction: float | None = None
    #: probability the next operation targets the same file as the previous
    #: one (temporal run locality: applications touch a file repeatedly)
    repeat_fraction: float = 0.0
    #: every N operations, rotate one file out of the hot set and promote a
    #: cold one (0 = static hot set).  Slow working-set drift is how a trace
    #: can combine a high cache hit rate with broad distinct-data coverage.
    hot_drift_ops: int = 0
    #: file size in blocks: drawn uniformly from [min, max]
    min_file_blocks: int = 4
    max_file_blocks: int = 64
    #: fraction of operations that are sequential continuations of the
    #: previous access to the previous file (drives the no-seek optimisation)
    sequential_fraction: float = 0.5
    #: fraction of transfers drawn from the heavy (large) size component;
    #: real file-system traces have rare multi-hundred-Kbyte transfers that
    #: fill or bypass a 32 KB SRAM buffer (paper section 5.5)
    large_fraction: float = 0.0
    #: mean of the heavy size component, in blocks
    large_mean_blocks: float = 32.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_fraction <= 1.0:
            raise TraceError("read_fraction must be in [0, 1]")
        if self.read_fraction + self.delete_fraction > 1.0:
            raise TraceError("read + delete fractions must not exceed 1")
        if self.block_size <= 0:
            raise TraceError("block_size must be positive")
        if self.min_file_blocks > self.max_file_blocks:
            raise TraceError("min_file_blocks must be <= max_file_blocks")
        # The gap mixture (_gap_chunk) reads these; a bad value would
        # otherwise surface as a ZeroDivisionError or as NaN timestamps.
        for name in ("duration_s", "interarrival_mean_s", "interarrival_max_s",
                     "burst_mean_scale"):
            _require_positive(name, getattr(self, name))
        if self.mid_mean_s is not None:
            _require_positive("mid_mean_s", self.mid_mean_s)
        if not 0.0 <= self.burst_weight <= 1.0:
            raise TraceError(
                f"burst_weight must be in [0, 1], got {self.burst_weight!r}"
            )
        if not (
            self.session_fraction >= 0.0
            and self.burst_weight + self.session_fraction <= 1.0
        ):
            raise TraceError(
                f"session_fraction must be in [0, 1 - burst_weight], "
                f"got {self.session_fraction!r}"
            )
        if not 0.0 <= self.session_min_s <= self.session_max_s < math.inf:
            raise TraceError(
                f"session_min_s must be in [0, session_max_s], got "
                f"{self.session_min_s!r} and {self.session_max_s!r}"
            )
        if self.mid_mean_s is None and self.burst_weight + self.session_fraction < 1.0:
            mid_mean = _mid_mean(self)
            if not mid_mean > 0:
                raise TraceError(
                    f"mid_mean_s solved from the target mean is {mid_mean!r}; "
                    f"set mid_mean_s, or keep burst_weight * burst_mean_scale below 1"
                )

    @property
    def n_operations(self) -> int:
        """Expected operation count: duration / mean inter-arrival."""
        return max(1, int(self.duration_s / self.interarrival_mean_s))

    def generate(self, seed: int = 0, n_ops: int | None = None) -> Trace:
        """Generate a trace with ``n_ops`` operations (default: enough to
        span the workload's nominal duration)."""
        if n_ops is None:
            n_ops = self.n_operations
        elif n_ops < 0:
            raise TraceError(f"n_ops must be >= 0, got {n_ops}")
        columns = _draw_columns(self, random.Random(seed), n_ops)
        return Trace.from_columns(
            self.name, *columns, block_size=self.block_size,
            metadata={"generator": "WorkloadSpec", "seed": seed},
        )


def _require_positive(name: str, value: float) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise TraceError(f"{name} must be finite and positive, got {value!r}")


def _mid_mean(spec: WorkloadSpec) -> float:
    """Mean of the mid-length pause component: ``mid_mean_s``, or (legacy
    two-component behaviour) solved so the mixture hits the target mean."""
    if spec.mid_mean_s is not None:
        return spec.mid_mean_s
    burst_mean = spec.interarrival_mean_s * spec.burst_mean_scale
    return (
        spec.interarrival_mean_s - spec.burst_weight * burst_mean
    ) / (1.0 - spec.burst_weight)


def _gap_chunk(spec: WorkloadSpec, rng: random.Random) -> list[float]:
    """The next ``GAP_CHUNK`` inter-arrival gaps.

    Each raw gap takes two ``rng.random()`` draws: one picks the burst,
    session or mid-pause component, the other is its ``expovariate`` or
    ``uniform``.  Raw gaps are capped at the maximum, then the chunk is
    rescaled to hit the target mean exactly (the raw mixture is right
    only in expectation, and capping shaves its mean) and capped again.

    One NumPy pass does this over the same Mersenne Twister words with
    the same float operations, so the gaps, and ``rng``'s state after,
    are exactly those of drawing one call at a time.
    """
    # Four words per gap in draw order: getrandbits fills from the least
    # significant word up.
    words = np.frombuffer(
        rng.getrandbits(128 * GAP_CHUNK).to_bytes(16 * GAP_CHUNK, "little"), "<u4"
    ).reshape(GAP_CHUNK, 4)
    # random() is two words as a 53-bit fraction (a >> 5, b >> 6):
    # column 0 picks the component, column 1 draws its value.
    uniforms = (
        (words[:, 0::2] >> 5) * 67108864.0 + (words[:, 1::2] >> 6)
    ) * (1.0 / 9007199254740992.0)
    pick, value = uniforms[:, 0], uniforms[:, 1]
    burst = pick < spec.burst_weight
    session = ~burst & (pick < spec.burst_weight + spec.session_fraction)
    mid = ~(burst | session)
    gaps = np.empty(GAP_CHUNK)
    burst_mean = spec.interarrival_mean_s * spec.burst_mean_scale
    gaps[burst] = _expovariate(value[burst], burst_mean)
    low, high = spec.session_min_s, spec.session_max_s
    gaps[session] = low + (high - low) * value[session]
    # Solved only where drawn: with burst_weight 1.0 it divides by zero.
    if mid.any():
        gaps[mid] = _expovariate(value[mid], _mid_mean(spec))
    cap = spec.interarrival_max_s
    gaps = np.minimum(gaps, cap)
    # A sequential fold, as sum() is through Python 3.11; 3.12's sum()
    # compensates, which gave the same seed a different trace.
    realized = np.cumsum(gaps)[-1] / GAP_CHUNK
    scale = spec.interarrival_mean_s / realized if realized > 0 else 1.0
    return np.minimum(gaps * scale, cap).tolist()


def _expovariate(uniforms: np.ndarray, mean: float) -> np.ndarray:
    """``random.expovariate(1.0 / mean)`` on each uniform, with libm's log
    through ``math.log``: NumPy's vector log can differ in the last bit."""
    logs = map(math.log, (1.0 - uniforms).tolist())
    return -np.fromiter(logs, float, len(uniforms)) / (1.0 / mean)


def _file_table(
    spec: WorkloadSpec, rng: random.Random
) -> tuple[list[int], list[int], list[float], list[int], list[int]]:
    """The files a trace draws from, and the draws that make them.

    Returns each file's size in blocks (by file id), the file ids by
    popularity rank, the cumulative Zipf weight by rank, and the hot and
    cold files (both empty without a hot/cold overlay).
    """
    target_blocks = spec.distinct_kbytes * KB // spec.block_size
    sizes: list[int] = []
    total = 0
    while total < target_blocks:
        size = rng.randint(spec.min_file_blocks, spec.max_file_blocks)
        size = min(size, int(target_blocks - total)) or 1
        sizes.append(size)
        total += size

    # Zipf weights over a shuffled file ranking, plus the hot set.
    n = len(sizes)
    ranks = list(range(n))
    rng.shuffle(ranks)
    cumulative = []
    running = 0.0
    for rank in range(n):
        running += 1.0 / (rank + 1) ** spec.zipf_exponent
        cumulative.append(running)

    hot_files: list[int] = []
    cold_files: list[int] = []
    if spec.hot_access_fraction is not None:
        target = spec.hot_data_fraction * sum(sizes)
        hot_blocks = 0
        for file_id in ranks:
            if hot_blocks < target:
                hot_files.append(file_id)
                hot_blocks += sizes[file_id]
            else:
                cold_files.append(file_id)
        if not cold_files:  # degenerate: everything is hot
            cold_files = list(hot_files)
    return sizes, ranks, cumulative, hot_files, cold_files


def _geometric_log(mean_blocks: float) -> float | None:
    """``log(1 - 1/mean)`` of a shifted-geometric size with this mean, or
    ``None`` when the mean is at most one block (one block, no draw)."""
    if mean_blocks <= 1.0:
        return None
    return math.log(1.0 - 1.0 / mean_blocks)


def _draw_columns(
    spec: WorkloadSpec, rng: random.Random, n_ops: int
) -> tuple[list[float], list[int], list[int], list[int], list[int]]:
    """The (time, op code, file id, offset, size) columns of a trace.

    Per operation: a gap (drawn ``GAP_CHUNK`` at a time), an operation
    kind, a file (the previous one again with ``repeat_fraction``, else
    from the hot/cold overlay or the Zipf ranking), a block count from a
    two-component size mix with the target mean (a shifted-geometric
    body, plus a ``large_fraction`` heavy component), and a block offset
    (the file's sequential cursor with ``sequential_fraction``, else
    uniform).  Every ``hot_drift_ops`` records one hot file swaps with a
    cold one.  A deletion of a deleted file, or one that would leave no
    file, and a read of a deleted file are skipped (their draws stay
    made); a write re-creates a deleted file.
    """
    sizes, ranks, cumulative, hot_files, cold_files = _file_table(spec, rng)
    hot_set = set(hot_files)
    n_files = len(sizes)
    last_rank = len(cumulative) - 1
    total_weight = cumulative[-1] if cumulative else 0.0

    random_ = rng.random
    choice = rng.choice
    randint = rng.randint
    read_fraction = spec.read_fraction
    delete_bound = spec.read_fraction + spec.delete_fraction
    hot_fraction = spec.hot_access_fraction
    write_hot = spec.write_hot_access_fraction
    write_fraction = hot_fraction if write_hot is None else write_hot
    repeat_fraction = spec.repeat_fraction
    drift_ops = spec.hot_drift_ops
    sequential_fraction = spec.sequential_fraction
    block_size = spec.block_size
    large_fraction = spec.large_fraction
    large_log = _geometric_log(spec.large_mean_blocks)
    body_logs = []
    for mean in (spec.mean_read_blocks, spec.mean_write_blocks):
        if large_fraction >= 1.0:  # every size is large: no body draw
            body_logs.append(None)
            continue
        if large_fraction > 0:
            mean = (mean - large_fraction * spec.large_mean_blocks) / (
                1.0 - large_fraction
            )
        body_logs.append(_geometric_log(max(1.0, mean)))
    read_log, write_log = body_logs

    times: list[float] = []
    ops: list[int] = []
    file_ids: list[int] = []
    offsets: list[int] = []
    lengths: list[int] = []
    cursor: dict[int, int] = {}  # file -> next sequential block
    deleted: set[int] = set()
    gaps: list[float] = []
    gap_index = 0
    clock = 0.0
    last_file: int | None = None
    emitted = 0
    while emitted < n_ops:
        if gap_index == len(gaps):
            gaps = _gap_chunk(spec, rng)
            gap_index = 0
        clock += gaps[gap_index]
        gap_index += 1

        draw = random_()
        op = READ if draw < read_fraction else DELETE if draw < delete_bound else WRITE
        # Write bursts re-target the hot working set: a write does not
        # inherit a cold file from a preceding cold read, which would
        # smear write traffic over cold data.
        repeatable = (
            last_file is not None
            and last_file not in deleted
            and (op != WRITE or write_hot is None or last_file in hot_set)
        )
        if drift_ops and emitted % drift_ops == 0 and hot_files and cold_files:
            hot_index = rng.randrange(len(hot_files))
            cold_index = rng.randrange(len(cold_files))
            hot_file = hot_files[hot_index]
            cold_file = cold_files[cold_index]
            hot_files[hot_index] = cold_file
            cold_files[cold_index] = hot_file
            hot_set.discard(hot_file)
            hot_set.add(cold_file)
        if repeatable and random_() < repeat_fraction:
            file_id = last_file
        elif hot_fraction is not None:
            fraction = write_fraction if op == WRITE else hot_fraction
            file_id = choice(hot_files) if random_() < fraction else choice(cold_files)
        else:
            file_id = ranks[bisect_left(cumulative, random_() * total_weight, 0, last_rank)]
        last_file = file_id

        if op == DELETE:
            if file_id in deleted or len(deleted) >= n_files - 1:
                continue
            deleted.add(file_id)
            cursor.pop(file_id, None)
            times.append(clock)
            ops.append(DELETE)
            file_ids.append(file_id)
            offsets.append(0)
            lengths.append(0)
            emitted += 1
            continue
        if file_id in deleted:
            if op == READ:
                continue  # cannot read a deleted file; skip the draw
            deleted.discard(file_id)  # a write recreates the file

        if large_fraction > 0 and random_() < large_fraction:
            size_log = large_log
        else:
            size_log = read_log if op == READ else write_log
        nblocks = 1 if size_log is None else (
            1 + int(math.log(max(random_(), 1e-12)) / size_log)
        )
        file_size = sizes[file_id]
        if nblocks > file_size:
            nblocks = max(1, file_size)

        limit = file_size - nblocks
        if limit <= 0:
            cursor[file_id] = 0
            offset = 0
        else:
            position = cursor.get(file_id)
            if position is not None and position <= limit and (
                random_() < sequential_fraction
            ):
                offset = position
            else:
                offset = randint(0, limit)
            cursor[file_id] = (offset + nblocks) % file_size

        times.append(clock)
        ops.append(op)
        file_ids.append(file_id)
        offsets.append(offset * block_size)
        lengths.append(nblocks * block_size)
        emitted += 1
    return times, ops, file_ids, offsets, lengths


def MacWorkload() -> WorkloadSpec:
    """Table 3 parameters for the ``mac`` trace (PowerBook Duo 230)."""
    return WorkloadSpec(
        name="mac",
        duration_s=3.5 * 3600,
        distinct_kbytes=22_000,
        read_fraction=0.50,
        block_size=KB,
        mean_read_blocks=1.3,
        mean_write_blocks=1.2,
        interarrival_mean_s=0.078,
        interarrival_max_s=90.8,
        burst_weight=0.9,
        burst_mean_scale=0.25,
        mid_mean_s=0.4,
        session_fraction=2e-4,
        session_min_s=10.0,
        session_max_s=90.8,
        zipf_exponent=1.1,
        hot_access_fraction=0.85,
        hot_data_fraction=0.05,
        write_hot_access_fraction=0.995,
        repeat_fraction=0.5,
        sequential_fraction=0.6,
        max_file_blocks=256,
        large_fraction=0.002,
        large_mean_blocks=24.0,
    )


def DosWorkload() -> WorkloadSpec:
    """Table 3 parameters for the ``dos`` trace (Windows 3.1 desktops).

    The dos trace is the only one with deletions (paper section 4.1).
    """
    return WorkloadSpec(
        name="dos",
        duration_s=1.5 * 3600,
        distinct_kbytes=16_300,
        read_fraction=0.24,
        block_size=KB // 2,
        mean_read_blocks=3.8,
        mean_write_blocks=3.4,
        interarrival_mean_s=0.528,
        interarrival_max_s=713.0,
        burst_weight=0.9,
        burst_mean_scale=0.2,
        mid_mean_s=1.2,
        session_fraction=0.002,
        session_min_s=60.0,
        session_max_s=713.0,
        delete_fraction=0.03,
        zipf_exponent=0.2,
        repeat_fraction=0.8,
        sequential_fraction=0.9,
        max_file_blocks=512,
        large_fraction=0.02,
        large_mean_blocks=40.0,
    )


def HpWorkload() -> WorkloadSpec:
    """Table 3 parameters for the ``hp`` trace (HP-UX, disk-level).

    The original records sit below the buffer cache, so locality is largely
    stripped (low Zipf exponent) and simulations use a zero-size DRAM cache.
    """
    return WorkloadSpec(
        name="hp",
        duration_s=4.4 * 24 * 3600,
        distinct_kbytes=32_000,
        read_fraction=0.38,
        block_size=KB,
        mean_read_blocks=4.3,
        mean_write_blocks=6.2,
        interarrival_mean_s=11.1,
        interarrival_max_s=30.0 * 60,
        burst_weight=0.9,
        burst_mean_scale=0.045,
        mid_mean_s=2.0,
        session_fraction=0.007,
        session_min_s=900.0,
        session_max_s=1800.0,
        zipf_exponent=0.3,
        repeat_fraction=0.2,
        sequential_fraction=0.3,
        max_file_blocks=512,
        large_fraction=0.02,
        large_mean_blocks=60.0,
    )


_FACTORIES = {
    "mac": MacWorkload,
    "dos": DosWorkload,
    "hp": HpWorkload,
}


def workload_by_name(name: str) -> WorkloadSpec:
    """Look up one of the paper's trace workloads by name.

    ``fitted:<model.json>`` resolves a saved fitted-workload model
    (a ``repro fit`` artifact) to its learned spec, so fitted workloads
    work anywhere a bundled workload name does — simulate, fleet
    populations, trace generation.
    """
    if name.startswith("fitted:"):
        from repro.traces.fitting import FittedWorkload

        return FittedWorkload.load(name.removeprefix("fitted:")).spec
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise TraceError(
            f"unknown workload {name!r}; expected one of {sorted(_FACTORIES)} "
            f"or fitted:<model.json>"
        ) from None
