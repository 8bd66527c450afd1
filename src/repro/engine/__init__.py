"""repro.engine — parallel, cache-aware experiment execution.

The engine turns a run request into independent :class:`WorkUnit`\\ s
(experiment id x seed), fans them out over a process pool, memoises every
result in a content-addressed on-disk :class:`ResultCache`, shares
generated traces through a :class:`TraceStore`, and records a JSONL
:class:`RunManifest` per run.  ``--jobs 1`` executes in-process and is
byte-identical to the historical serial runner.

Quickstart::

    from repro.engine import ResultCache, decompose, execute

    units = decompose(["table4", "fig2"], scale=0.2, seeds=(1, 2, 3))
    outcomes = execute(units, jobs=4, cache=ResultCache("~/.cache/repro"))
    for outcome in outcomes:
        print(outcome.unit.label, outcome.cache, outcome.wall_s)

The CLI front end is ``python -m repro run`` (see ``repro run --help``)
with cache management under ``python -m repro cache {stats,clear}``.
"""

from repro.engine.chaos import ChaosAction, ChaosError, ChaosPlan
from repro.engine.fingerprint import cache_key, device_fingerprint, package_version
from repro.engine.interrupt import INTERRUPT_EXIT_CODE, cancel_on_signals
from repro.engine.jobs import (
    EngineOptions,
    add_engine_args,
    add_kernel_arg,
    auto_jobs,
    jobs_arg,
    resolve_engine_args,
    resolve_jobs,
)
from repro.engine.manifest import RunManifest, read_manifest, resume_spec
from repro.engine.resilience import ExecutionPolicy
from repro.engine.result_cache import CacheStats, ResultCache, default_cache_dir
from repro.engine.scheduler import (
    CANCELLED_ERROR,
    EngineError,
    UnitOutcome,
    execute,
    raise_on_errors,
    run_unit_inline,
    summarize,
)
from repro.engine.trace_store import TraceStore
from repro.engine.unit import WorkUnit, decompose, freeze_kwargs

__all__ = [
    "CANCELLED_ERROR",
    "CacheStats",
    "ChaosAction",
    "ChaosError",
    "ChaosPlan",
    "EngineError",
    "EngineOptions",
    "ExecutionPolicy",
    "INTERRUPT_EXIT_CODE",
    "ResultCache",
    "RunManifest",
    "TraceStore",
    "UnitOutcome",
    "WorkUnit",
    "add_engine_args",
    "add_kernel_arg",
    "auto_jobs",
    "cache_key",
    "cancel_on_signals",
    "decompose",
    "default_cache_dir",
    "device_fingerprint",
    "execute",
    "freeze_kwargs",
    "jobs_arg",
    "package_version",
    "raise_on_errors",
    "read_manifest",
    "resolve_engine_args",
    "resolve_jobs",
    "resume_spec",
    "run_unit_inline",
    "summarize",
]
