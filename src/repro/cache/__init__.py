"""Caching layers above the non-volatile store: the write-through (or,
optionally, write-back) LRU DRAM buffer cache and the battery-backed SRAM
write buffer that lets small writes proceed without spinning up the disk
(paper sections 2, 5.4, 5.5).
"""

from repro.cache.buffer_cache import BufferCache
from repro.cache.sram_buffer import SramWriteBuffer

__all__ = [
    "BufferCache",
    "SramWriteBuffer",
]
