"""File-system overhead models: compression, DOS FS, MFFS 2.00."""

import pytest

from repro.devices.disk import MagneticDisk
from repro.devices.flashcard import FlashCard
from repro.devices.flashdisk import FlashDisk
from repro.devices.specs import (
    CU140_DATASHEET,
    INTEL_DATASHEET,
    SDP10_DATASHEET,
)
from repro.fs.compression import (
    DOUBLESPACE,
    STACKER,
    CompressionModel,
    DataKind,
)
from repro.fs.dosfs import DosFileSystem
from repro.fs.mffs import MicrosoftFlashFileSystem
from repro.errors import ConfigurationError
from repro.units import KB, MB


class TestCompressionModel:
    def test_text_halves(self):
        assert DOUBLESPACE.compressed_bytes(4096, DataKind.TEXT) == 2048

    def test_random_incompressible(self):
        assert DOUBLESPACE.compressed_bytes(4096, DataKind.RANDOM) == 4096

    def test_compress_time_positive(self):
        assert DOUBLESPACE.compress_time(4096, DataKind.TEXT) > 0

    def test_random_decompress_is_cheap_copy(self):
        fast = DOUBLESPACE.decompress_time(4096, DataKind.RANDOM)
        slow = DOUBLESPACE.decompress_time(4096, DataKind.TEXT)
        assert fast < slow

    def test_invalid_ratio(self):
        with pytest.raises(ConfigurationError):
            CompressionModel(name="bad", text_ratio=0.0)

    def test_layer_specific_overheads(self):
        # DoubleSpace's per-file penalty dwarfs Stacker's (Table 1 pattern).
        assert DOUBLESPACE.per_file_overhead_s > STACKER.per_file_overhead_s
        assert STACKER.sync_write_extra_s > 0


def make_dosfs(compression=None):
    disk = MagneticDisk(CU140_DATASHEET, spin_down_timeout_s=None)
    return DosFileSystem(disk, compression=compression)


class TestDosFileSystem:
    def test_write_then_read_roundtrip_latencies(self):
        fs = make_dosfs()
        writes = fs.write_file("a", 8 * KB, 4 * KB)
        reads = fs.read_file("a", 4 * KB)
        assert len(writes) == 2
        assert len(reads) == 2
        assert all(latency > 0 for latency in writes + reads)

    def test_large_files_amortize_open_cost(self):
        fs = make_dosfs()
        start = fs.clock
        fs.write_file("s", 4 * KB, 4 * KB)
        small_throughput = 4 * KB / (fs.clock - start)
        start = fs.clock
        fs.write_file("l", 256 * KB, 4 * KB)
        large_throughput = 256 * KB / (fs.clock - start)
        assert large_throughput > small_throughput * 1.5

    def test_flash_disk_writes_much_slower_than_disk(self):
        disk_fs = make_dosfs()
        flash_fs = DosFileSystem(FlashDisk(SDP10_DATASHEET, block_bytes=512))
        disk_time = sum(disk_fs.write_file("x", 64 * KB, 4 * KB))
        flash_time = sum(flash_fs.write_file("x", 64 * KB, 4 * KB))
        assert flash_time > 3 * disk_time  # 50 KB/s vs 2125 KB/s media

    def test_compressed_small_writes_fast(self):
        plain = make_dosfs()
        compressed = make_dosfs(DOUBLESPACE)
        plain_time = sum(plain.write_file("x", 4 * KB, 4 * KB, DataKind.TEXT))
        compressed_time = sum(
            compressed.write_file("x", 4 * KB, 4 * KB, DataKind.TEXT)
        )
        assert compressed_time < plain_time  # write-behind cache absorbs it

    def test_compressed_large_writes_slower(self):
        plain = make_dosfs()
        compressed = make_dosfs(DOUBLESPACE)
        plain_time = sum(plain.write_file("x", 1 * MB, 4 * KB, DataKind.TEXT))
        compressed_time = sum(
            compressed.write_file("x", 1 * MB, 4 * KB, DataKind.TEXT)
        )
        assert compressed_time > plain_time  # CPU-bound compression

    def test_compressed_read_pays_per_file_penalty(self):
        plain = make_dosfs()
        compressed = make_dosfs(DOUBLESPACE)
        plain.write_file("x", 4 * KB, 4 * KB, DataKind.TEXT)
        compressed.write_file("x", 4 * KB, 4 * KB, DataKind.TEXT)
        compressed.clock = max(compressed.clock, compressed.device.busy_until)
        plain_read = sum(plain.read_file("x", 4 * KB, DataKind.TEXT))
        compressed_read = sum(compressed.read_file("x", 4 * KB, DataKind.TEXT))
        assert compressed_read > plain_read

    def test_op_interface_same_file_avoids_reopen(self):
        fs = make_dosfs()
        first = fs.op_read("f", 0, KB)
        second = fs.op_read("f", KB, KB)
        assert second < first  # no directory lookup, no seek

    def test_op_delete_frees(self):
        fs = make_dosfs()
        fs.op_write("f", 0, 4 * KB)
        fs.op_delete("f")
        assert "f" not in fs._files


def make_mffs(card=None):
    if card is None:
        card = FlashCard(INTEL_DATASHEET, block_bytes=512)
    return MicrosoftFlashFileSystem(card)


class TestMffs:
    def test_write_latency_grows_with_file_offset(self):
        fs = make_mffs()
        latencies = fs.write_file("big", 512 * KB, 4 * KB, DataKind.TEXT)
        first_quarter = sum(latencies[: len(latencies) // 4])
        last_quarter = sum(latencies[-len(latencies) // 4 :])
        assert last_quarter > 2 * first_quarter  # the Figure 1 anomaly

    def test_read_latency_grows_with_offset_too(self):
        fs = make_mffs()
        fs.write_file("big", 512 * KB, 4 * KB, DataKind.TEXT)
        latencies = fs.read_file("big", 4 * KB, DataKind.TEXT)
        assert latencies[-1] > 2 * latencies[0]

    def test_small_file_reads_fast(self):
        fs = make_mffs()
        fs.write_file("small", 4 * KB, 4 * KB, DataKind.RANDOM)
        latency = fs.read_file("small", 4 * KB, DataKind.RANDOM)[0]
        assert latency < 0.010  # Table 1: 645 KB/s class

    def test_compressible_data_writes_faster(self):
        random_fs = make_mffs()
        text_fs = make_mffs()
        random_time = sum(random_fs.write_file("x", 64 * KB, 4 * KB, DataKind.RANDOM))
        text_time = sum(text_fs.write_file("x", 64 * KB, 4 * KB, DataKind.TEXT))
        assert text_time < random_time  # half the blocks to allocate

    def test_cumulative_decay_slows_writes(self):
        fs = make_mffs()
        first = sum(fs.write_file("a", 32 * KB, 4 * KB, DataKind.TEXT))
        for index in range(100):  # pump cumulative bytes through the card
            fs.write_file(f"junk{index}", 32 * KB, 4 * KB, DataKind.TEXT)
        later = sum(fs.write_file("a", 32 * KB, 4 * KB, DataKind.TEXT))
        assert later > first * 1.5

    def test_op_delete_invalidates_card_blocks(self):
        fs = make_mffs()
        fs.op_write("f", 0, 4 * KB)
        live_before = fs.card.live_blocks
        fs.op_delete("f")
        assert fs.card.live_blocks < live_before
