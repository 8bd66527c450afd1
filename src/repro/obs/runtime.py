"""Process-global observability session (opt-in, None by default).

Experiment drivers call :func:`repro.core.simulator.simulate` with no way
to thread an extra argument through 22 signatures.  Instead, the engine's
worker installs a session here with :func:`observed`, and ``Simulator.run``
falls back to :func:`active` when its ``obs`` keyword is None — which is also
why observability has zero cost when nothing is installed: one module
attribute read per *run*, not per operation.

Deliberately import-light: this module must be importable from the core
simulator without dragging the tracer/metrics machinery along.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.obs.session import ObservabilitySession

_active: "ObservabilitySession | None" = None


def active() -> "ObservabilitySession | None":
    """The installed session, or None when observability is off."""
    return _active


@contextmanager
def observed(session: "ObservabilitySession") -> Iterator["ObservabilitySession"]:
    """Install ``session`` for the duration of a ``with`` block."""
    global _active
    previous = _active
    _active = session
    try:
        yield session
    finally:
        _active = previous
