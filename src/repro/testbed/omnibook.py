"""The OmniBook 300 micro-benchmark testbed.

"We constructed software benchmarks to measure the performance of the
three storage devices.  The benchmarks repeatedly read and wrote a sequence
of files, and measured the throughput obtained." (paper section 3)

Each :class:`StorageSetup` pairs a raw device model with its file-system
stack (DOS FS, optional DoubleSpace/Stacker, or MFFS 2.00).  The testbed
builds a fresh setup per benchmark run — the paper erased the flash card
completely before each experiment "to ensure that writes from previous
runs would not cause excess cleaning".
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from repro.devices.disk import MagneticDisk
from repro.devices.flashcard import FlashCard
from repro.devices.flashdisk import FlashDisk
from repro.devices.specs import (
    CU140_DATASHEET,
    INTEL_DATASHEET,
    SDP10_DATASHEET,
)
from repro.errors import ConfigurationError
from repro.fs.compression import DOUBLESPACE, STACKER, DataKind
from repro.fs.dosfs import DosFileSystem
from repro.fs.mffs import MicrosoftFlashFileSystem
from repro.units import KB, MB


class StorageSetup(enum.Enum):
    """The storage configurations Table 1 measures."""

    CU140 = "cu140"
    CU140_COMPRESSED = "cu140+doublespace"
    SDP10 = "sdp10"
    SDP10_COMPRESSED = "sdp10+stacker"
    INTEL_MFFS = "intel+mffs"  #: compression is built into MFFS 2.00


@dataclass(frozen=True)
class BenchmarkResult:
    """One micro-benchmark measurement."""

    setup: StorageSetup
    operation: str  #: "read" or "write"
    file_bytes: int
    io_bytes: int
    data_kind: DataKind
    elapsed_s: float
    data_bytes: int
    latencies_s: tuple[float, ...]

    @property
    def throughput_kbps(self) -> float:
        """Throughput in Kbytes/s (the Table 1 unit)."""
        if self.elapsed_s <= 0:
            return 0.0
        return (self.data_bytes / KB) / self.elapsed_s


class OmniBook:
    """Micro-benchmark runner over the modelled storage setups."""

    def __init__(self, seed: int = 0) -> None:
        """``seed`` drives the benchmarks' random choices."""
        self.seed = seed

    # -- setup construction --------------------------------------------------------

    def build(self, setup: StorageSetup):
        """Build a fresh device + file-system stack for ``setup``."""
        if setup is StorageSetup.CU140:
            disk = MagneticDisk(CU140_DATASHEET, spin_down_timeout_s=None)
            return DosFileSystem(disk)
        if setup is StorageSetup.CU140_COMPRESSED:
            disk = MagneticDisk(CU140_DATASHEET, spin_down_timeout_s=None)
            return DosFileSystem(disk, compression=DOUBLESPACE)
        if setup is StorageSetup.SDP10:
            flash = FlashDisk(SDP10_DATASHEET, block_bytes=512)
            return DosFileSystem(flash)
        if setup is StorageSetup.SDP10_COMPRESSED:
            flash = FlashDisk(SDP10_DATASHEET, block_bytes=512)
            return DosFileSystem(flash, compression=STACKER)
        if setup is StorageSetup.INTEL_MFFS:
            card = FlashCard(INTEL_DATASHEET, block_bytes=512)
            return MicrosoftFlashFileSystem(card)
        raise ConfigurationError(f"unknown setup {setup!r}")  # pragma: no cover

    # -- benchmarks ---------------------------------------------------------------

    def run(
        self,
        setup: StorageSetup,
        operation: str,
        file_bytes: int,
        io_bytes: int = 4 * KB,
        total_bytes: int = 1 * MB,
        data_kind: DataKind = DataKind.RANDOM,
        access: str = "sequential",
    ) -> BenchmarkResult:
        """Read or write a sequence of ``file_bytes`` files totalling
        ``total_bytes``, in ``io_bytes`` chunks (the Table 1 benchmark).

        "Both sequential and random accesses were performed, the former to
        measure maximum throughput and the latter to measure the overhead
        of seeks" (paper section 3): ``access="random"`` touches the files'
        chunks in shuffled order through the single-operation interface, so
        the file system cannot cluster them and the disk pays a seek per
        I/O.
        """
        if operation not in ("read", "write"):
            raise ConfigurationError(f"operation must be read/write, got {operation}")
        if access not in ("sequential", "random"):
            raise ConfigurationError(f"access must be sequential/random, got {access}")
        fs = self.build(setup)
        n_files = max(1, total_bytes // file_bytes)

        latencies: list[float] = []
        start = fs.clock
        if access == "random":
            return self._run_random(
                fs, setup, operation, file_bytes, io_bytes, n_files, data_kind
            )
        if operation == "write":
            for index in range(n_files):
                latencies.extend(
                    fs.write_file(f"bench{index}", file_bytes, io_bytes, data_kind)
                )
        else:
            # Populate first (off the clock is impossible in a physical
            # testbed, so write, then measure only the read phase).
            for index in range(n_files):
                fs.write_file(f"bench{index}", file_bytes, io_bytes, data_kind)
            # Let any write-behind backlog drain before the timed phase.
            fs.clock = max(fs.clock, fs.device.busy_until)
            start = fs.clock
            for index in range(n_files):
                latencies.extend(fs.read_file(f"bench{index}", io_bytes, data_kind))

        return BenchmarkResult(
            setup=setup,
            operation=operation,
            file_bytes=file_bytes,
            io_bytes=io_bytes,
            data_kind=data_kind,
            elapsed_s=fs.clock - start,
            data_bytes=n_files * file_bytes,
            latencies_s=tuple(latencies),
        )

    def _run_random(
        self,
        fs,
        setup: StorageSetup,
        operation: str,
        file_bytes: int,
        io_bytes: int,
        n_files: int,
        data_kind: DataKind,
    ) -> BenchmarkResult:
        """Random-access variant: shuffled (file, offset) order through the
        single-operation interface — every access is a fresh open/seek."""
        rng = random.Random(self.seed)
        chunks_per_file = max(1, file_bytes // io_bytes)
        accesses = [
            (index, chunk * io_bytes)
            for index in range(n_files)
            for chunk in range(chunks_per_file)
        ]
        # Populate so random reads find data.
        for index in range(n_files):
            fs.write_file(f"bench{index}", file_bytes, io_bytes, data_kind)
        fs.clock = max(fs.clock, fs.device.busy_until)
        rng.shuffle(accesses)

        latencies: list[float] = []
        start = fs.clock
        for index, offset in accesses:
            name = f"bench{index}"
            if operation == "write":
                latencies.append(fs.op_write(name, offset, io_bytes, data_kind))
            else:
                latencies.append(fs.op_read(name, offset, io_bytes, data_kind))
        return BenchmarkResult(
            setup=setup,
            operation=operation,
            file_bytes=file_bytes,
            io_bytes=io_bytes,
            data_kind=data_kind,
            elapsed_s=fs.clock - start,
            data_bytes=len(accesses) * io_bytes,
            latencies_s=tuple(latencies),
        )

    def write_latency_series(
        self,
        setup: StorageSetup,
        file_bytes: int = 1 * MB,
        io_bytes: int = 4 * KB,
        data_kind: DataKind = DataKind.RANDOM,
        smooth_bytes: int = 32 * KB,
    ) -> list[tuple[float, float, float]]:
        """The Figure 1 series: 4 KB writes to a 1 MB file.

        Returns ``(cumulative_kbytes, latency_ms, instantaneous_kbps)``
        tuples, averaged over ``smooth_bytes`` windows as in the paper ("to
        smooth the latency ... points were taken by averaging across
        32 Kbytes of writes").
        """
        fs = self.build(setup)
        latencies = fs.write_file("fig1", file_bytes, io_bytes, data_kind)
        per_window = max(1, smooth_bytes // io_bytes)
        series = []
        for start in range(0, len(latencies), per_window):
            window = latencies[start : start + per_window]
            mean_latency = sum(window) / len(window)
            cumulative_kb = (start + len(window)) * io_bytes / KB
            throughput = (io_bytes / KB) / mean_latency if mean_latency > 0 else 0.0
            series.append((cumulative_kb, mean_latency * 1e3, throughput))
        return series

    def run_trace(self, setup: StorageSetup, trace) -> dict[str, float]:
        """Replay a file-level trace on the testbed (the section 5.1
        validation: "running a 6-Mbyte synthetic trace both through the
        simulator and on the OmniBook").

        Returns mean read/write response times in milliseconds.
        """
        from repro.traces.record import Operation

        fs = self.build(setup)
        read_total = read_count = 0.0
        write_total = write_count = 0.0
        for record in trace:
            # Respect trace timing: the testbed machine idles between
            # operations (the device keeps its background behaviour).
            if record.time > fs.clock:
                fs.device.advance(record.time)
                fs.clock = record.time
            name = f"f{record.file_id}"
            if record.op is Operation.READ:
                read_total += fs.op_read(name, record.offset, record.size)
                read_count += 1
            elif record.op is Operation.WRITE:
                write_total += fs.op_write(name, record.offset, record.size)
                write_count += 1
            else:
                fs.op_delete(name)
        return {
            "read_mean_ms": (read_total / read_count * 1e3) if read_count else 0.0,
            "write_mean_ms": (write_total / write_count * 1e3) if write_count else 0.0,
            "reads": read_count,
            "writes": write_count,
        }

    def overwrite_throughput_series(
        self,
        live_bytes: int,
        n_megabytes: int = 20,
        io_bytes: int = 4 * KB,
        data_kind: DataKind = DataKind.TEXT,
    ) -> list[tuple[float, float]]:
        """The Figure 3 series: on a 10 MB Intel card holding ``live_bytes``
        of data, overwrite 1 MB at a time (4 KB writes to randomly selected
        live files), 20 times; returns ``(cumulative_mbytes, kbps)``.
        """
        rng = random.Random(self.seed)
        card = FlashCard(INTEL_DATASHEET, block_bytes=512)
        fs = MicrosoftFlashFileSystem(card)
        file_bytes = 32 * KB
        n_files = max(1, live_bytes // file_bytes)
        for index in range(n_files):
            fs.create(f"live{index}", file_bytes)
        # Install the initial live data instantly (the paper's files were
        # already present when the overwrite experiment started).
        for index in range(n_files):
            start_block, _ = fs._files[f"live{index}"]
            blocks = range(start_block, start_block + file_bytes // card.block_bytes)
            card.preload(blocks)

        series = []
        writes_per_mb = MB // file_bytes
        for mb in range(n_megabytes):
            start = fs.clock
            for _ in range(writes_per_mb):
                victim = rng.randrange(n_files)
                fs.write_file(f"live{victim}", file_bytes, io_bytes, data_kind)
            elapsed = fs.clock - start
            series.append((float(mb + 1), (MB / KB) / elapsed if elapsed > 0 else 0.0))
        return series
