"""Drive a :class:`~repro.core.layers.LayerStack` one operation at a time.

The simulator runs whole compiled traces through
:meth:`~repro.core.layers.LayerStack.run_batch`.  Tests that hand-build a
single :class:`~repro.traces.record.BlockOp` use :func:`submit`, which
compiles that one op and runs it through the same loop.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.layers import LayerStack
from repro.traces.compiled import CompiledOps
from repro.traces.record import BlockOp, Operation
from repro.traces.trace import DELETE, READ, WRITE

_CODES = {Operation.READ: READ, Operation.WRITE: WRITE, Operation.DELETE: DELETE}


class Completed(NamedTuple):
    """What an ``on_complete`` subscriber saw of one finished operation."""

    response_s: float
    attributed_latency_s: float


def submit(stack: LayerStack, op: BlockOp) -> Completed:
    """Run ``op`` through ``stack`` and return its completed response.

    The op compiles as :func:`~repro.traces.compiled.compile_trace` would
    compile it: the in-stack size is the block footprint (for a deletion,
    of the blocks it frees).
    """
    compiled = CompiledOps(
        np.array([_CODES[op.op]], np.int8),
        np.array([op.time], np.float64),
        np.array([op.file_id], np.int64),
        np.array([len(op.blocks)], np.int64),
        [tuple(op.blocks)],
        dataset_blocks=0,
        block_bytes=stack.block_bytes,
    )
    seen: list[Completed] = []

    def record(response) -> None:
        seen.append(Completed(response.response_s, response.attributed_latency_s))

    stack.hooks.on_complete(record)
    try:
        stack.run_batch(compiled)
    finally:
        # A fail-fast fault raises through run_batch.
        stack.hooks.off_complete(record)
    return seen[0]
