"""Simulation kernels: interchangeable engines behind ``simulate``.

Three kernels run the same trace/config pair:

``reference``
    The original per-operation event path: every op is parsed, mapped,
    and submitted one record at a time.  Semantic ground truth; slowest.
``batched``
    The compiled-ops fast path: ops are pre-compiled once per trace and
    replayed through the layer stack.  Hex-exact with ``reference`` and
    the default.
``vector``
    The NumPy array path (:mod:`repro.kernel.vector`): device timing is
    solved in closed form where the physics allow and in lean scalar loops
    where they don't.  Equal to ``reference`` within the documented
    floating-point tolerance (:func:`repro.contract.compare_results`);
    falls back to ``batched`` outside its envelope.

:mod:`repro.kernel.runtime` holds the process-wide kernel selection that
``repro run --kernel``/``repro fleet --kernel`` install.
"""

from __future__ import annotations

from repro.kernel.runtime import active, install, uninstall, using_kernel

#: Registered kernel names, in increasing order of specialisation.
KERNELS = ("reference", "batched", "vector")


def validate_kernel(name: str) -> str:
    """Return ``name`` if it names a kernel, else raise ``ValueError``."""
    if name not in KERNELS:
        options = ", ".join(KERNELS)
        raise ValueError(f"unknown kernel {name!r} (choose from: {options})")
    return name


__all__ = [
    "KERNELS",
    "validate_kernel",
    "active",
    "install",
    "uninstall",
    "using_kernel",
]
