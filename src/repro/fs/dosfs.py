"""DOS (FAT) file-system overhead model.

Table 1's throughputs "all include DOS file system overhead"; this model
adds that overhead on top of a raw device model so the testbed can
regenerate the measured numbers.  Costs, calibrated against the CU140 and
SDP10 rows of Table 1:

* opening a file costs one random device access (directory lookup); opens
  for writing add a FAT/directory update;
* sequential I/O is clustered: the FS reads ahead / writes behind in
  32 Kbyte runs, so the device sees one operation per cluster rather than
  one per 4 KB call (this is what makes large-file throughput approach the
  media rate while every call still pays fixed CPU time);
* every I/O call carries fixed CPU time for FAT bookkeeping (writes pay
  more: allocation, FAT chaining, directory updates);
* with a compression layer (DoubleSpace on the CU140, Stacker on the
  SunDisk): small files are absorbed by the compressor's write cache and
  flushed behind the benchmark's back — the paper observes small-write
  throughput "greater than the theoretical limit of the SunDisk sdp10" —
  while files larger than the cache are compressed and written
  synchronously, with a read-modify-write penalty on the compressed
  volume's cluster boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.base import StorageDevice
from repro.fs.compression import CompressionModel, DataKind
from repro.units import KB, SECTOR, ms


@dataclass(frozen=True)
class DosFsParameters:
    """Calibrated DOS FS cost constants (see module docstring)."""

    open_write_extra_s: float = ms(6.0)  #: FAT/dir update beyond the lookup
    read_io_cpu_s: float = ms(5.7)  #: per-I/O-call bookkeeping on reads
    write_io_cpu_s: float = ms(15.4)  #: per-I/O-call bookkeeping on writes
    cluster_bytes: int = 32 * KB  #: read-ahead / write-behind run length
    #: files at or under this size are absorbed by the compression layer's
    #: write-behind cache and flushed asynchronously
    batch_threshold_bytes: int = 32 * KB
    batch_io_cpu_s: float = ms(4.0)  #: per-I/O cost of a cached write
    #: how far (in seconds of device work) the compressor's write-behind
    #: cache may run ahead of the device before callers must wait
    batch_backlog_limit_s: float = 6.0


class DosFileSystem:
    """A DOS file system over a raw storage device.

    The file system keeps its own sequential clock: the testbed issues one
    operation after another (a micro-benchmark has no think time), so every
    device call starts when the previous one finished.

    Its cost constants are the Table 1 calibration.

    Args:
        device: the underlying device model (disk or flash disk).
        compression: optional DoubleSpace/Stacker layer.
    """

    def __init__(
        self,
        device: StorageDevice,
        compression: CompressionModel | None = None,
    ) -> None:
        self.device = device
        self.compression = compression
        self.params = DosFsParameters()
        self.clock = 0.0
        self._next_block = 0
        self._files: dict[str, tuple[int, int]] = {}  # name -> (start, size)
        self._file_ids: dict[str, int] = {}

    # -- helpers -------------------------------------------------------------------

    def _file_id(self, name: str) -> int:
        return self._file_ids.setdefault(name, len(self._file_ids))

    def _blocks_for(self, name: str, offset: int, nbytes: int) -> list[int]:
        start, _ = self._files[name]
        first = start + offset // SECTOR
        last = start + (offset + max(1, nbytes) - 1) // SECTOR
        return list(range(first, last + 1))

    def _open(self, name: str, for_write: bool) -> int:
        """Directory lookup (a random access near the file's data)."""
        file_id = self._file_id(name)
        self.clock = self.device.read(self.clock, SECTOR, [0], file_id)
        if for_write:
            self.clock += self.params.open_write_extra_s
        if self.compression is not None and not for_write:
            self.clock += self.compression.per_file_overhead_s
        return file_id

    def create(self, name: str, size: int) -> None:
        """Allocate ``name`` with ``size`` bytes of contiguous blocks."""
        nblocks = max(1, (size + SECTOR - 1) // SECTOR)
        self._files[name] = (self._next_block, size)
        self._next_block += nblocks

    def _ensure(self, name: str, size: int) -> None:
        if name not in self._files or self._files[name][1] < size:
            self.create(name, size)

    # -- clustered transfer core -----------------------------------------------------

    def _transfer(
        self,
        name: str,
        size: int,
        io_bytes: int,
        file_id: int,
        write: bool,
        stored_scale: float,
        per_io_cpu: float,
        per_io_extra: float = 0.0,
        per_io_kind_cost=None,
    ) -> list[float]:
        """Run a sequence of I/O calls with device ops clustered in
        ``cluster_bytes`` runs.  ``stored_scale`` shrinks device traffic for
        compressed data; ``per_io_kind_cost`` adds data-dependent CPU time
        (compression/decompression) per call."""
        params = self.params
        latencies: list[float] = []
        offset = 0
        pending = 0  # bytes awaiting a clustered device op
        pending_start = 0
        while offset < size:
            chunk = min(io_bytes, size - offset)
            start = self.clock
            self.clock += per_io_cpu + per_io_extra
            if per_io_kind_cost is not None:
                self.clock += per_io_kind_cost(chunk)
            pending += chunk
            offset += chunk
            if pending >= params.cluster_bytes or offset >= size:
                stored = max(1, int(pending * stored_scale))
                blocks = self._blocks_for(name, pending_start, stored)
                if write:
                    self.clock = self.device.write(self.clock, stored, blocks, file_id)
                else:
                    self.clock = self.device.read(self.clock, stored, blocks, file_id)
                pending_start = offset
                pending = 0
            latencies.append(self.clock - start)
        return latencies

    # -- single-operation (trace replay) interface --------------------------------------

    def op_read(
        self, name: str, offset: int, nbytes: int, kind: DataKind = DataKind.RANDOM
    ) -> float:
        """One application read (trace replay); returns its latency.

        Files stay open across operations, so the directory lookup is paid
        only when the target file changes (mirroring the simulator's
        same-file seek optimisation).
        """
        self._ensure(name, offset + nbytes)
        file_id = self._file_id(name)
        start = self.clock
        if file_id != self._last_op_file:
            self._open(name, for_write=False)
            self._last_op_file = file_id
        self.clock += self.params.read_io_cpu_s
        compression = self.compression
        stored = nbytes
        if compression is not None:
            stored = compression.compressed_bytes(nbytes, kind)
        self.clock = self.device.read(
            self.clock, stored, self._blocks_for(name, offset, stored), file_id
        )
        if compression is not None:
            self.clock += compression.decompress_time(nbytes, kind)
        return self.clock - start

    def op_write(
        self, name: str, offset: int, nbytes: int, kind: DataKind = DataKind.RANDOM
    ) -> float:
        """One application write (trace replay); returns its latency."""
        self._ensure(name, offset + nbytes)
        file_id = self._file_id(name)
        start = self.clock
        if file_id != self._last_op_file:
            self._open(name, for_write=True)
            self._last_op_file = file_id
        self.clock += self.params.write_io_cpu_s
        compression = self.compression
        stored = nbytes
        if compression is not None:
            self.clock += compression.compress_time(nbytes, kind)
            self.clock += compression.sync_write_extra_s
            stored = compression.compressed_bytes(nbytes, kind)
        self.clock = self.device.write(
            self.clock, stored, self._blocks_for(name, offset, stored), file_id
        )
        return self.clock - start

    def op_delete(self, name: str) -> None:
        """Delete a file (trace replay): free its blocks, no latency stat."""
        if name not in self._files:
            return
        start_block, size = self._files.pop(name)
        nblocks = max(1, (size + SECTOR - 1) // SECTOR)
        self.device.delete(self.clock, list(range(start_block, start_block + nblocks)))

    _last_op_file: int | None = None

    # -- benchmark operations -------------------------------------------------------

    def write_file(
        self,
        name: str,
        size: int,
        io_bytes: int,
        kind: DataKind = DataKind.RANDOM,
    ) -> list[float]:
        """(Over)write ``name`` in ``io_bytes`` chunks; returns per-I/O-call
        latencies in seconds."""
        params = self.params
        self._ensure(name, size)
        compression = self.compression

        if compression is not None and size <= params.batch_threshold_bytes:
            return self._cached_compressed_write(name, size, io_bytes, kind)

        file_id = self._open(name, for_write=True)
        if compression is None:
            return self._transfer(
                name, size, io_bytes, file_id,
                write=True, stored_scale=1.0, per_io_cpu=params.write_io_cpu_s,
            )
        # Synchronous compressed write: compress, then write the smaller
        # stream, paying the compressed volume's read-modify-write penalty.
        return self._transfer(
            name, size, io_bytes, file_id,
            write=True,
            stored_scale=compression.ratio(kind),
            per_io_cpu=params.write_io_cpu_s,
            per_io_extra=compression.sync_write_extra_s,
            per_io_kind_cost=lambda n: compression.compress_time(n, kind),
        )

    def _cached_compressed_write(
        self, name: str, size: int, io_bytes: int, kind: DataKind
    ) -> list[float]:
        """Small compressed writes: absorbed by the compressor's cache and
        flushed asynchronously ("small writes go quickly, because they are
        buffered and written to disk in batches")."""
        params = self.params
        compression = self.compression
        assert compression is not None
        file_id = self._file_id(name)
        latencies = []
        offset = 0
        while offset < size:
            chunk = min(io_bytes, size - offset)
            start = self.clock
            stored = compression.compressed_bytes(chunk, kind)
            self.clock += compression.compress_time(chunk, kind)
            self.clock += params.batch_io_cpu_s
            # Flush behind the benchmark's back: the device works while the
            # next call proceeds, so throughput can exceed the media rate
            # (the paper observes exactly this on the SDP10) — until the
            # cache's backlog limit makes callers wait.
            flush_at = max(self.device.busy_until, self.device.clock)
            self.device.write(
                flush_at, stored, self._blocks_for(name, offset, stored), file_id
            )
            backlog = self.device.busy_until - self.clock
            if backlog > params.batch_backlog_limit_s:
                self.clock = self.device.busy_until - params.batch_backlog_limit_s
            latencies.append(self.clock - start)
            offset += chunk
        return latencies

    def read_file(
        self,
        name: str,
        io_bytes: int,
        kind: DataKind = DataKind.RANDOM,
    ) -> list[float]:
        """Read ``name`` front to back in ``io_bytes`` chunks; returns
        per-I/O-call latencies in seconds."""
        params = self.params
        _, size = self._files[name]
        compression = self.compression
        file_id = self._open(name, for_write=False)
        if compression is None:
            return self._transfer(
                name, size, io_bytes, file_id,
                write=False, stored_scale=1.0, per_io_cpu=params.read_io_cpu_s,
            )
        return self._transfer(
            name, size, io_bytes, file_id,
            write=False,
            stored_scale=compression.ratio(kind),
            per_io_cpu=params.read_io_cpu_s,
            per_io_kind_cost=lambda n: compression.decompress_time(n, kind),
        )
