"""Shared trace generation for experiment drivers.

Full-scale operation counts reproduce the paper's Table 3 arithmetic
(duration / mean inter-arrival); experiments pass ``scale`` to shrink the
runs proportionally.  Traces are cached per (name, scale, seed) so a suite
of experiments over the same workloads generates each trace once.

:func:`configure_trace_store` plugs in an on-disk store (anything with
``load(name, scale, seed)`` / ``save(trace, name, scale, seed)``) that is
consulted before regeneration, so the execution engine's worker
processes (:mod:`repro.engine`) share each generated trace instead of
recomputing it.  The fixed module-default seed (:func:`default_seed`)
applies when no ``seed=`` is passed.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Protocol

from repro.traces.fitting import FittedWorkload
from repro.traces.synthetic import SyntheticWorkload
from repro.traces.trace import Trace
from repro.traces.workloads import workload_by_name

#: Full-scale operation counts: trace duration / mean inter-arrival.
FULL_OPS = {
    "mac": 161_000,
    "dos": 10_200,
    "hp": 34_000,
}

#: Per-trace DRAM sizes used throughout the paper's simulations: "There was
#: a 2-Mbyte DRAM buffer for mac and dos but no DRAM buffer cache in the hp
#: simulations."
DRAM_BYTES = {
    "mac": 2 * 1024 * 1024,
    "dos": 2 * 1024 * 1024,
    "hp": 0,
}

#: The synth workload's nominal length (enough operations for its 6 MB
#: dataset to churn several times over).
SYNTH_FULL_OPS = 20_000


#: Seed used when ``trace_for`` is called without an explicit one.
_DEFAULT_SEED = 1


class TraceStoreLike(Protocol):
    """What :func:`configure_trace_store` accepts (duck-typed so this
    module never imports :mod:`repro.engine`)."""

    def load(self, name: str, scale: float, seed: int) -> Trace | None: ...

    def save(self, trace: Trace, name: str, scale: float, seed: int) -> object: ...


#: Optional shared on-disk store consulted before regeneration.
_TRACE_STORE: TraceStoreLike | None = None


def configure_trace_store(store: TraceStoreLike | None) -> None:
    """Install (or, with ``None``, remove) the shared on-disk trace store."""
    global _TRACE_STORE
    _TRACE_STORE = store


def default_seed() -> int:
    """The module-wide default trace seed."""
    return _DEFAULT_SEED


def trace_for(name: str, scale: float = 1.0, seed: int | None = None) -> Trace:
    """The (cached) trace for one of the paper's workloads at ``scale``.

    Besides the bundled names (``mac``/``dos``/``hp``/``synth``),
    ``fitted:<model.json>`` generates from a saved
    :class:`~repro.traces.fitting.FittedWorkload`, scaled against the
    model's source record count.  The per-process cache keys on the model
    *path*; the engine's result cache keys on the model *content*
    (:mod:`repro.engine.fingerprint`), so a re-fit model invalidates
    cached results even though a long-lived process should be restarted
    to pick it up.

    ``seed=None`` uses the module default (:func:`default_seed`).
    """
    return _generate(name, scale, _DEFAULT_SEED if seed is None else seed)


@lru_cache(maxsize=32)
def _generate(name: str, scale: float, seed: int) -> Trace:
    store = _TRACE_STORE
    model: FittedWorkload | None = None
    store_name = name
    if name.startswith("fitted:"):
        # Store entries are keyed by model *content*, not path: the path
        # may contain separators, and a re-fit model at the same path
        # must never be served a stale stored trace.
        model = FittedWorkload.load(name.removeprefix("fitted:"))
        store_name = f"fitted-{model.content_digest()[:16]}"
    if store is not None:
        stored = store.load(store_name, scale, seed)
        if stored is not None:
            return stored
    if model is not None:
        n_ops = max(500, int(model.reference.n_records * scale))
        trace = model.generate(seed=seed, n_ops=n_ops)
    elif name == "synth":
        n_ops = max(500, int(SYNTH_FULL_OPS * scale))
        trace = SyntheticWorkload().generate(n_ops=n_ops, seed=seed)
    else:
        # Resolve the spec first: workload_by_name raises the canonical
        # TraceError (naming the valid choices) for unknown names.
        spec = workload_by_name(name)
        n_ops = max(500, int(FULL_OPS[name] * scale))
        trace = spec.generate(seed=seed, n_ops=n_ops)
    if store is not None:
        store.save(trace, store_name, scale, seed)
    return trace


def dram_for(name: str) -> int:
    """The paper's DRAM buffer size for a given trace."""
    return DRAM_BYTES.get(name, 2 * 1024 * 1024)
