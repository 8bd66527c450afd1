"""Counter-based random numbers for the fleet fast path's trace synthesis.

:func:`counter_uniforms` is a SplitMix64-style counter hash producing
i.i.d. uniforms keyed by ``(device_seed, stream, counter)``.  The contract
on synthesized traces is distributional (:func:`repro.contract.
compare_summaries`), not bit-exact, and a counter-based stream is
shard/worker/order-invariant by construction.  The hash works on
``uint64`` arrays, whose multiplications wrap modulo 2**64 as intended.
"""

from __future__ import annotations

import numpy as np

_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = x + _SM_GAMMA
    x = (x ^ (x >> np.uint64(30))) * _SM_MIX1
    x = (x ^ (x >> np.uint64(27))) * _SM_MIX2
    return x ^ (x >> np.uint64(31))


def counter_uniforms(
    seeds: np.ndarray, stream: int, counters: np.ndarray
) -> np.ndarray:
    """Uniform(0, 1) floats keyed by ``(seed, stream, counter)``.

    ``seeds`` broadcasts against ``counters`` (typically seeds is
    ``(G, 1)`` and counters ``(L,)`` or ``(G, L)``).  Device ``i``'s
    stream depends only on its own seed, the stream id, and the counter
    — never on shard boundaries or evaluation order.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    counters = np.asarray(counters, dtype=np.uint64)
    stream_key = np.uint64((stream * 0x9E3779B97F4A7C15) % (1 << 64))
    key = _splitmix64(seeds ^ stream_key)
    z = _splitmix64(key ^ _splitmix64(counters))
    # 53 mantissa bits -> [0, 1); nudge off exact zero so log() is safe.
    out = (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
    return np.maximum(out, 1e-300)
