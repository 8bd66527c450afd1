"""Microsoft Flash File System 2.00 model.

MFFS 2.00 stores files as linked chains of variable-sized extents in flash,
with compression built in.  The paper's measurements expose three costs
beyond the raw card:

* **the linear-degradation anomaly** — "The latency of each write increases
  linearly as the file grows, apparently because data already written to
  the flash card are written again, even in the absence of cleaning"
  (Figure 1).  Reads of large files suffer the same way (Table 1: 1 MB
  reads at 37 KB/s vs. 645 KB/s for 4 KB files).  Modelled as a chain-walk
  cost proportional to the file offset being accessed.
* **per-written-block bookkeeping** — every 512 bytes written costs fixed
  allocation/metadata time (which is why compressible data *writes faster*:
  half the blocks).
* **cumulative metadata decay** — throughput keeps dropping with total data
  written to the card even at 10% space utilization (Figure 3), modelled as
  a small per-access cost proportional to cumulative bytes written since
  the card was erased.

Cleaning overhead is *not* modelled here; it comes from the underlying
:class:`~repro.devices.flashcard.FlashCard`, which is what makes Figure 3's
high-utilization curves drop faster.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.flashcard import FlashCard
from repro.fs.compression import DataKind, MFFS_COMPRESSION
from repro.units import KB, ms


@dataclass(frozen=True)
class MffsParameters:
    """Calibrated MFFS 2.00 cost constants (Table 1 / Figures 1 and 3)."""

    read_op_cpu_s: float = ms(4.5)  #: fixed CPU per read I/O
    #: linked-chain traversal cost per Kbyte of file offset (reads & writes)
    chain_walk_s_per_kb: float = ms(0.21)
    #: allocation/metadata cost per Kbyte actually written
    write_s_per_kb_written: float = ms(18.6)
    #: cumulative-decay cost per write I/O, per (compressed) Mbyte ever
    #: written to the card; calibrated against Figure 3's long-run slope
    decay_s_per_mb_written: float = ms(36.0)


class MicrosoftFlashFileSystem:
    """MFFS 2.00 over a :class:`FlashCard`.

    Like :class:`~repro.fs.dosfs.DosFileSystem`, it keeps a sequential
    clock (micro-benchmarks have no think time).  MFFS's built-in
    compressor is always on in 2.00, and the cost constants are the
    Table 1 calibration.

    Args:
        card: the flash card device model.
    """

    def __init__(self, card: FlashCard) -> None:
        self.card = card
        self.device = card  # uniform attribute across file-system models
        self.compression = MFFS_COMPRESSION
        self.params = MffsParameters()
        self.clock = 0.0
        self.cumulative_written = 0  #: bytes written since the last erase
        self._next_block = 0
        self._files: dict[str, tuple[int, int]] = {}
        self._file_ids: dict[str, int] = {}

    # -- helpers ---------------------------------------------------------------

    def _file_id(self, name: str) -> int:
        return self._file_ids.setdefault(name, len(self._file_ids))

    def _blocks_for(self, name: str, offset: int, nbytes: int) -> list[int]:
        start, _ = self._files[name]
        block = self.card.block_bytes
        first = start + offset // block
        last = start + (offset + max(1, nbytes) - 1) // block
        return list(range(first, last + 1))

    def _decay_cost(self) -> float:
        return self.params.decay_s_per_mb_written * (
            self.cumulative_written / (1024 * KB)
        )

    def create(self, name: str, size: int) -> None:
        """Register ``name`` with a block range sized for ``size`` bytes."""
        block = self.card.block_bytes
        nblocks = max(1, (size + block - 1) // block)
        self._files[name] = (self._next_block, size)
        self._next_block += nblocks

    # -- single-operation (trace replay) interface ------------------------------------

    def op_read(
        self, name: str, offset: int, nbytes: int, kind: DataKind = DataKind.TEXT
    ) -> float:
        """One application read (trace replay); returns its latency."""
        self._ensure(name, offset + nbytes)
        file_id = self._file_id(name)
        start = self.clock
        stored = self.compression.compressed_bytes(nbytes, kind)
        self.clock += self.params.read_op_cpu_s
        self.clock += self.params.chain_walk_s_per_kb * (offset / KB)
        self.clock = self.card.read(
            self.clock, stored, self._blocks_for(name, offset, stored), file_id
        )
        self.clock += self.compression.decompress_time(nbytes, kind)
        return self.clock - start

    def op_write(
        self, name: str, offset: int, nbytes: int, kind: DataKind = DataKind.TEXT
    ) -> float:
        """One application write (trace replay); returns its latency."""
        self._ensure(name, offset + nbytes)
        file_id = self._file_id(name)
        start = self.clock
        stored = self.compression.compressed_bytes(nbytes, kind)
        self.clock += self.compression.compress_time(nbytes, kind)
        self.clock += self.params.chain_walk_s_per_kb * (offset / KB)
        self.clock += self.params.write_s_per_kb_written * (stored / KB)
        self.clock += self._decay_cost()
        self.clock = self.card.write(
            self.clock, stored, self._blocks_for(name, offset, stored), file_id
        )
        self.cumulative_written += stored
        return self.clock - start

    def op_delete(self, name: str) -> None:
        """Delete a file (trace replay): invalidate its blocks on the card."""
        if name not in self._files:
            return
        start_block, size = self._files.pop(name)
        block = self.card.block_bytes
        nblocks = max(1, (size + block - 1) // block)
        self.card.delete(self.clock, list(range(start_block, start_block + nblocks)))

    def _ensure(self, name: str, size: int) -> None:
        if name not in self._files or self._files[name][1] < size:
            self.create(name, size)

    # -- benchmark operations -----------------------------------------------------

    def write_file(
        self,
        name: str,
        size: int,
        io_bytes: int,
        kind: DataKind = DataKind.TEXT,
    ) -> list[float]:
        """(Over)write ``name`` in ``io_bytes`` chunks; returns per-I/O
        latencies in seconds."""
        params = self.params
        if name not in self._files or self._files[name][1] < size:
            self.create(name, size)
        file_id = self._file_id(name)

        latencies = []
        offset = 0
        while offset < size:
            chunk = min(io_bytes, size - offset)
            start = self.clock
            stored = self.compression.compressed_bytes(chunk, kind)
            self.clock += self.compression.compress_time(chunk, kind)
            self.clock += params.chain_walk_s_per_kb * (offset / KB)
            self.clock += params.write_s_per_kb_written * (stored / KB)
            self.clock += self._decay_cost()
            self.clock = self.card.write(
                self.clock, stored, self._blocks_for(name, offset, stored), file_id
            )
            self.cumulative_written += stored
            latencies.append(self.clock - start)
            offset += chunk
        return latencies

    def read_file(
        self,
        name: str,
        io_bytes: int,
        kind: DataKind = DataKind.TEXT,
    ) -> list[float]:
        """Read ``name`` front to back in ``io_bytes`` chunks; returns
        per-I/O latencies in seconds."""
        params = self.params
        _, size = self._files[name]
        file_id = self._file_id(name)

        latencies = []
        offset = 0
        while offset < size:
            chunk = min(io_bytes, size - offset)
            start = self.clock
            stored = self.compression.compressed_bytes(chunk, kind)
            self.clock += params.read_op_cpu_s
            self.clock += params.chain_walk_s_per_kb * (offset / KB)
            self.clock = self.card.read(
                self.clock, stored, self._blocks_for(name, offset, stored), file_id
            )
            self.clock += self.compression.decompress_time(chunk, kind)
            latencies.append(self.clock - start)
            offset += chunk
        return latencies
