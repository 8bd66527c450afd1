"""Shared on-disk trace store.

Trace generation is deterministic on (workload name, scale, seed) but not
free; without sharing, every worker process regenerates every trace it
needs.  The store saves each generated :class:`~repro.traces.trace.Trace`
once and lets other processes load it.  An entry is a gzipped pickle of
the trace's five columns, name, block size and metadata — never the
compiled ops, op arrays or DRAM plans cached on it — so floating-point
times round-trip exactly (the text format would round them), and loading
re-runs the trace's bulk record checks.  Entry names carry a format tag
(:data:`TRACE_FORMAT`): an entry in another format is a miss that gets
regenerated, and a pickle from before traces were columnar never becomes
a trace.

The store is write-through and race-tolerant: if two workers generate the
same trace concurrently, both produce identical bytes and the atomic
rename means the last writer wins harmlessly.  It plugs into
:mod:`repro.experiments.traces_cache` via
:func:`~repro.experiments.traces_cache.configure_trace_store`, so
experiment drivers need no changes to benefit.
"""

from __future__ import annotations

import gzip
import os
import pickle
from pathlib import Path

from repro.errors import TraceError
from repro.traces.trace import Trace

#: Format tag in every entry name: bump it when the pickled form changes.
TRACE_FORMAT = "cols1"

#: gzip level of an entry.  Level 9 is far slower on float columns for
#: almost no gain: the full ``mac`` trace's 5.3 MB of columns compress in
#: 0.29 s to 1.35 MB at level 6, and in 2.9 s to 1.31 MB at level 9.
GZIP_LEVEL = 6


class TraceStore:
    """Persist generated traces keyed by (name, scale, seed)."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()

    def path_for(self, name: str, scale: float, seed: int) -> Path:
        # repr() spells the scale exactly: two scales that agree to six
        # digits still generate different traces.
        return (
            self.root / "traces"
            / f"{name}-s{float(scale)!r}-r{seed}.{TRACE_FORMAT}.pkl.gz"
        )

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def _quarantine(self, path: Path) -> None:
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:
            pass  # vanished concurrently; the miss alone is enough

    def load(self, name: str, scale: float, seed: int) -> Trace | None:
        """The stored trace, or None if absent or unreadable.

        A truncated or corrupt gzip-pickle (torn write, bit rot), or one
        whose columns fail the trace checks or that holds a pre-columnar
        trace, is a miss that *quarantines* the bad file — the next writer
        then regenerates a clean entry instead of every reader tripping
        over the same bytes forever."""
        path = self.path_for(name, scale, seed)
        if not path.exists():
            return None
        try:
            with gzip.open(path, "rb") as stream:
                trace = pickle.load(stream)
        except (OSError, EOFError, pickle.UnpicklingError, TraceError,
                AttributeError, ImportError, IndexError):
            self._quarantine(path)
            return None
        if not isinstance(trace, Trace):
            self._quarantine(path)
            return None
        return trace

    def save(self, trace: Trace, name: str, scale: float, seed: int) -> Path:
        """Write-through store (tmp + fsync + atomic rename).  A trace
        pickles as its columns, name, block size and metadata alone."""
        path = self.path_for(name, scale, seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with gzip.open(tmp, "wb", compresslevel=GZIP_LEVEL) as stream:
            pickle.dump(trace, stream, protocol=pickle.HIGHEST_PROTOCOL)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp, path)
        return path

    def prewarm(self, names: tuple[str, ...], scale: float, seed: int) -> int:
        """Generate-and-store each named workload once (in this process)
        so workers load rather than regenerate it.  The engine passes the
        traces its pending units' experiments declare
        (:attr:`~repro.experiments.base.Experiment.traces`); fleets
        declare none, so ``names`` may be empty.  Returns how many traces
        were newly generated."""
        from repro.experiments import traces_cache

        generated = 0
        for name in names:
            if self.load(name, scale, seed) is None:
                self.save(traces_cache.trace_for(name, scale, seed=seed),
                          name, scale, seed)
                generated += 1
        return generated
