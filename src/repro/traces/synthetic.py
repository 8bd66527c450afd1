"""The paper's ``synth`` workload (section 4.1), implemented literally.

    "The trace consists of 6 Mbytes of 32-Kbyte files, where 7/8 of the
    accesses go to 1/8 of the data.  Operations are divided 60% reads, 35%
    writes, 5% erases.  An erase operation deletes an entire file; the next
    write to the file writes an entire 32-Kbyte unit.  Otherwise 40% of
    accesses are 0.5 Kbytes in size, 40% are between 0.5 Kbytes and 16
    Kbytes, and 20% are between 16 Kbytes and 32 Kbytes.  The inter-arrival
    time between operations was modeled as a bimodal distribution with 90%
    of accesses having a uniform distribution with a mean of 10 ms and the
    remaining accesses taking 20 ms plus a value that is exponentially
    distributed with a mean of 3 s."

(The OCR of the paper renders the hot/cold fractions as "87 of the accesses
go to 81 of the data"; the intended hot-and-cold split, borrowed from the
Sprite LFS evaluation the paper cites, is 7/8 of accesses to 1/8 of the
data, and both fractions are exposed as parameters.)
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.errors import TraceError
from repro.traces.trace import DELETE, READ, WRITE, Trace
from repro.units import KB


@dataclass(frozen=True, slots=True)
class SyntheticWorkload:
    """Generator for the paper's hot-and-cold synthetic workload.

    Attributes mirror the paper's parameters; the defaults reproduce the
    ``synth`` configuration exactly.
    """

    name: str = "synth"
    total_bytes: int = 6 * 1024 * KB  #: 6 Mbytes of data
    file_bytes: int = 32 * KB  #: 32-Kbyte files
    hot_access_fraction: float = 7 / 8  #: fraction of accesses to hot data
    hot_data_fraction: float = 1 / 8  #: fraction of data that is hot
    read_fraction: float = 0.60
    write_fraction: float = 0.35  #: remainder (5%) is erases
    small_size_fraction: float = 0.40  #: accesses of exactly 0.5 KB
    medium_size_fraction: float = 0.40  #: accesses in (0.5 KB, 16 KB]
    #: remaining 20% of accesses are in (16 KB, 32 KB]
    burst_fraction: float = 0.90  #: accesses with the uniform inter-arrival
    burst_mean_s: float = 0.010  #: mean of the uniform component
    pause_offset_s: float = 0.020  #: fixed part of the slow component
    pause_mean_s: float = 3.0  #: mean of the exponential part

    def __post_init__(self) -> None:
        if self.total_bytes % self.file_bytes:
            raise TraceError("total_bytes must be a multiple of file_bytes")
        if not 0.0 < self.hot_data_fraction < 1.0:
            raise TraceError("hot_data_fraction must be in (0, 1)")
        if self.read_fraction + self.write_fraction > 1.0:
            raise TraceError("read + write fractions must not exceed 1")

    @property
    def n_files(self) -> int:
        """Number of files in the dataset."""
        return self.total_bytes // self.file_bytes

    def generate(self, n_ops: int, seed: int = 0, block_size: int = 512) -> Trace:
        """Generate a trace of ``n_ops`` operations.

        Erased files are recreated in full (one ``file_bytes`` write) the
        next time the workload writes to them, per the paper; reads are
        redirected away from currently-erased files.  An erase that would
        leave no file is skipped (its draws stay made).
        """
        if n_ops < 0:
            raise TraceError(f"n_ops must be >= 0, got {n_ops}")
        rng = random.Random(seed)
        random_ = rng.random
        randrange = rng.randrange
        randint = rng.randint
        n_files = self.n_files
        n_hot = max(1, round(n_files * self.hot_data_fraction))
        n_cold = n_files - n_hot
        hot_fraction = self.hot_access_fraction
        burst_fraction = self.burst_fraction
        burst_span = 2.0 * self.burst_mean_s
        pause_offset = self.pause_offset_s
        pause_rate = 1.0 / self.pause_mean_s
        read_fraction = self.read_fraction
        write_bound = self.read_fraction + self.write_fraction
        small_fraction = self.small_size_fraction
        medium_bound = self.small_size_fraction + self.medium_size_fraction
        file_bytes = self.file_bytes

        def choose_file() -> int:
            if random_() < hot_fraction:
                return randrange(n_hot)
            return n_hot + randrange(n_cold)

        times: list[float] = []
        ops: list[int] = []
        file_ids: list[int] = []
        offsets: list[int] = []
        sizes: list[int] = []
        erased: set[int] = set()
        clock = 0.0
        for _ in range(n_ops):
            # Bimodal gaps: uniform(0, 2 * burst mean), or the pause offset
            # plus an exponential (random.uniform and expovariate, inlined).
            if random_() < burst_fraction:
                clock += 0.0 + burst_span * random_()
            else:
                clock += pause_offset + -math.log(1.0 - random_()) / pause_rate
            draw = random_()
            op = READ if draw < read_fraction else WRITE if draw < write_bound else DELETE
            file_id = choose_file()

            if op == DELETE:
                if len(erased) >= n_files - 1:
                    continue  # never erase the entire dataset
                while file_id in erased:
                    file_id = choose_file()
                erased.add(file_id)
                offset = size = 0
            elif op == WRITE and file_id in erased:
                # First write after an erase recreates the whole file.
                erased.discard(file_id)
                offset, size = 0, file_bytes
            else:
                if op == READ:
                    while file_id in erased:
                        file_id = choose_file()
                draw = random_()
                if draw < small_fraction:
                    size = 512
                else:
                    if draw < medium_bound:
                        size = randint(512 + 1, 16 * KB)
                    else:
                        size = randint(16 * KB + 1, file_bytes)
                    size = max(block_size, (size // block_size) * block_size)
                max_offset = file_bytes - size
                offset = (
                    randint(0, max_offset // block_size) * block_size
                    if max_offset > 0 else 0
                )
            times.append(clock)
            ops.append(op)
            file_ids.append(file_id)
            offsets.append(offset)
            sizes.append(size)

        return Trace.from_columns(
            self.name, times, ops, file_ids, offsets, sizes,
            block_size=block_size,
            metadata={"generator": "SyntheticWorkload", "seed": seed},
        )
