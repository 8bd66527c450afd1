"""Flat NumPy views of a compiled trace, shared by every vector kernel.

:func:`op_arrays` hands the kernels the arrays
:class:`~repro.traces.compiled.CompiledOps` already holds, cached on the
trace object exactly like the compiled ops themselves.  The per-op block
*tuples* stay in the compiled form — the kernels index them lazily
(flash-card writes, sleeping-disk buffer membership) because only a small
fraction of operations ever need block identities.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.traces.trace import DELETE, READ, WRITE

if TYPE_CHECKING:
    from repro.traces.compiled import CompiledOps
    from repro.traces.trace import Trace

_CACHE_ATTR = "_kernel_op_arrays"

__all__ = ["DELETE", "READ", "WRITE", "OpArrays", "op_arrays"]


class OpArrays:
    """Parallel per-operation arrays: kind code (the trace's op codes),
    time, size, file id, block count."""

    __slots__ = ("kind", "time", "size", "file_id", "n_blocks", "n_ops")

    def __init__(self, compiled: "CompiledOps") -> None:
        self.n_ops = compiled.n_ops
        self.kind = compiled.op_codes
        self.time = compiled.time
        self.size = compiled.size
        self.file_id = compiled.file_id
        self.n_blocks = compiled.n_blocks


def op_arrays(trace: "Trace", compiled: "CompiledOps") -> OpArrays:
    """The NumPy view of ``compiled``, built once and cached on ``trace``."""
    cached = getattr(trace, _CACHE_ATTR, None)
    if cached is not None:
        return cached
    arrays = OpArrays(compiled)
    setattr(trace, _CACHE_ATTR, arrays)
    return arrays
