"""Process-global kernel selection.

Mirrors :mod:`repro.obs.runtime`: a module-global holds the active kernel
name so that deeply nested call sites (``simulate`` inside an experiment
inside a fleet runner) pick up the caller's choice without threading a
parameter through every signature.  Explicit ``kernel=`` arguments always
win over the global.
"""

from __future__ import annotations

from contextlib import contextmanager

_active: str | None = None


def active() -> str | None:
    """The active kernel name, or None when unset."""
    return _active


@contextmanager
def using_kernel(kernel: str | None):
    """Run a block with ``kernel`` installed, restoring the previous
    selection afterwards (exception-safe)."""
    global _active
    previous = _active
    _active = kernel
    try:
        yield kernel
    finally:
        _active = previous
