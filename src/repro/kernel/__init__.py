"""Simulation kernels: interchangeable engines behind ``simulate``.

Two kernels run the same trace/config pair:

``batched``
    The event path and the default: the trace is compiled once into
    per-operation columns and driven through the layer stack.  Semantic
    ground truth.
``vector``
    The NumPy array path (:mod:`repro.kernel.vector`): device timing is
    solved in closed form where the physics allow and in lean scalar loops
    where they don't.  Equal to ``batched`` within the documented
    floating-point tolerance (:func:`repro.contract.compare_results`);
    falls back to ``batched`` outside its envelope.

:mod:`repro.kernel.runtime` holds the process-wide kernel selection:
:func:`using_kernel` sets it for a ``with`` block (``repro run --kernel``
and ``repro fleet --kernel`` go through it), and :func:`active` reads it.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.kernel.runtime import active, using_kernel

#: Registered kernel names, in increasing order of specialisation.
KERNELS = ("batched", "vector")


def validate_kernel(name: str) -> str:
    """Return ``name`` if it names a kernel, else raise
    :class:`~repro.errors.ConfigurationError`."""
    if name not in KERNELS:
        options = ", ".join(KERNELS)
        raise ConfigurationError(f"unknown kernel {name!r} (choose from: {options})")
    return name


__all__ = [
    "KERNELS",
    "validate_kernel",
    "active",
    "using_kernel",
]
