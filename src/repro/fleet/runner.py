"""Fleet execution: decompose a fleet into engine work units and
aggregate the shards back into one population summary.

:func:`run_fleet` is the single entry point both fronts share — the
``repro fleet`` CLI and the job service call it with the same arguments,
which is what makes a fleet submitted over HTTP byte-identical to the
same fleet run locally with ``--jobs 1``: identical decomposition,
identical per-device seeds, and an exact (shard-order-independent)
aggregation.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any

from repro.engine import (
    ChaosPlan,
    ExecutionPolicy,
    ResultCache,
    RunManifest,
    TraceStore,
    UnitOutcome,
    WorkUnit,
    execute,
    freeze_kwargs,
    resolve_jobs,
)
from repro.errors import ConfigurationError
from repro.experiments.base import ExperimentResult
from repro.fleet.aggregate import (
    population_summary,
    population_summary_from_columns,
)
from repro.fleet.experiment import (
    DEVICE_COLUMNS,
    DEVICES_TABLE_TITLE,
    shard_indices,
)
from repro.fleet.population import FleetSpec

#: Hard ceiling on devices per shard.  Million-device fleets would
#: otherwise decompose into ~31k-device units whose wall times trip
#: ``ExecutionPolicy`` timeouts and starve progress/retry granularity;
#: capping the shard keeps every unit a few seconds on the fast path.
MAX_SHARD_DEVICES = 4096


def default_shards(devices: int, jobs: int) -> int:
    """How many work units a fleet becomes when the caller doesn't say.

    Serial runs stay one unit (pure function call, no overhead); parallel
    runs cut two units per worker — enough to keep the pool busy through
    uneven shard times and to give the service per-shard progress events —
    but never more units than devices.  Either way no shard exceeds
    ``MAX_SHARD_DEVICES``, so huge fleets get per-shard progress, retry,
    and timeout granularity instead of monolithic units.
    """
    size_floor = -(-devices // MAX_SHARD_DEVICES)  # ceil division
    if jobs <= 1:
        return max(1, size_floor)
    return max(2, min(devices, jobs * 2), size_floor)


def decompose_fleet(
    spec: FleetSpec,
    shards: int,
    kernel: str | None = None,
    fast: bool = False,
) -> list[WorkUnit]:
    """The fleet as ``shards`` engine work units (contiguous device
    slices; kwargs make each unit independently cacheable/resumable).

    ``kernel`` and ``fast`` ride each unit, so every shard simulates its
    devices under the same engine regardless of which worker runs it.
    ``fast`` enters the kwargs only when set — reference-path cache keys
    are unchanged, and fast/reference results never collide.  The two
    are exclusive: the fast path runs no simulation kernel, so a kernel
    would change nothing but the cache key.
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    if fast and kernel is not None:
        raise ConfigurationError(
            f"the fleet fast path runs no simulation kernel; kernel "
            f"{kernel!r} cannot be combined with fast"
        )
    if shards > spec.devices:
        shards = spec.devices
    kwargs: dict[str, Any] = {
        "devices": spec.devices,
        "ops": spec.ops_per_device,
    }
    if fast:
        kwargs["fast"] = True
    return [
        WorkUnit(
            experiment_id="fleet",
            scale=spec.scale,
            seed=spec.seed,
            kernel=kernel,
            kwargs=freeze_kwargs(
                {**kwargs, "shard": shard, "shards": shards}
            ),
        )
        for shard in range(shards)
    ]


def rows_from_result(result: ExperimentResult) -> list[dict[str, Any]]:
    """Read one shard's per-device rows back out of its result table."""
    table = result.table(DEVICES_TABLE_TITLE)
    if table.headers != DEVICE_COLUMNS:
        raise ConfigurationError(
            f"unexpected fleet table columns {table.headers!r}"
        )
    return [
        {
            column: (None if cell == "-" else cell)
            for column, cell in zip(DEVICE_COLUMNS, row)
        }
        for row in table.rows
    ]


@dataclass
class FleetRun:
    """Outcome of one fleet execution (summary is None unless complete)."""

    spec: FleetSpec
    jobs: int
    shards: int
    outcomes: list[UnitOutcome]
    summary: dict[str, Any] | None
    #: devices simulated per wall-clock second across the whole execution
    #: (cache hits included — a replayed shard still delivers devices).
    devices_per_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.summary is not None

    @property
    def cancelled(self) -> bool:
        return any(outcome.cancelled for outcome in self.outcomes)


def run_fleet(
    spec: FleetSpec,
    *,
    jobs: int | str | None = None,
    shards: int | None = None,
    cache: ResultCache | None = None,
    trace_store: TraceStore | None = None,
    manifest: RunManifest | None = None,
    policy: ExecutionPolicy | None = None,
    chaos: ChaosPlan | None = None,
    cancel: threading.Event | None = None,
    progress=None,
    metrics: Any | None = None,
    kernel: str | None = None,
    fast: bool = False,
) -> FleetRun:
    """Execute a fleet through the engine and aggregate the population.

    All engine affordances apply per shard: cache hits replay, failures
    retry under ``policy``, a chaos-killed worker re-queues its shard,
    and ``cancel`` stops cooperatively with unfinished shards recorded
    for ``--resume``.  The summary is produced only when every shard
    completed ``ok`` — a partial population is reported as a failure,
    never silently aggregated.

    ``fast=True`` routes every shard through the vectorized synthesis
    path (:mod:`repro.fleet.synth`) and aggregates the columnar shard
    payloads by array merge; summaries then agree with the reference
    path within the fleet gate of :mod:`repro.contract`, and are still
    byte-identical across any shards/jobs/cache-replay choice.
    """
    jobs = resolve_jobs(jobs)
    if shards is None:
        shards = default_shards(spec.devices, jobs)
    units = decompose_fleet(spec, shards, kernel, fast=fast)

    # Progress decoration: every completed shard reports cumulative
    # devices/sec — to the caller's progress hook (the CLI prints it),
    # the run manifest (the job service streams manifest records as
    # NDJSON events), and the ``serve_fleet_devices_total`` counter.
    started = time.perf_counter()
    devices_done = 0

    def on_progress(done: int, total: int, outcome: UnitOutcome) -> None:
        nonlocal devices_done
        if outcome.ok:
            unit_kwargs = dict(outcome.unit.kwargs)
            shard_devices = len(shard_indices(
                spec.devices, unit_kwargs["shard"], unit_kwargs["shards"]
            ))
            devices_done += shard_devices
            elapsed = time.perf_counter() - started
            rate = devices_done / elapsed if elapsed > 0 else 0.0
            if metrics is not None:
                metrics.counter(
                    "serve_fleet_devices_total",
                    "fleet devices simulated (or replayed) by run_fleet",
                ).inc(shard_devices)
            if manifest is not None:
                manifest.record_event(
                    "fleet-progress",
                    shards_done=done,
                    shards_total=total,
                    devices_done=devices_done,
                    devices_total=spec.devices,
                    devices_per_s=round(rate, 3),
                )
        if progress is not None:
            progress(done, total, outcome)

    outcomes = execute(
        units,
        jobs=jobs,
        cache=cache,
        trace_store=trace_store,
        manifest=manifest,
        policy=policy,
        chaos=chaos,
        cancel=cancel,
        progress=on_progress,
        metrics=metrics,
    )
    summary = None
    if all(outcome.ok and outcome.result is not None for outcome in outcomes):
        parts = [outcome.result.columns for outcome in outcomes]
        if parts and all(part is not None for part in parts):
            # Columnar transport: aggregate by array merge.
            summary = population_summary_from_columns(spec, parts)
        else:
            rows: list[dict[str, Any]] = []
            for outcome in outcomes:
                rows.extend(rows_from_result(outcome.result))
            summary = population_summary(spec, rows)
    elapsed = time.perf_counter() - started
    return FleetRun(
        spec=spec,
        jobs=jobs,
        shards=len(units),
        outcomes=outcomes,
        summary=summary,
        devices_per_s=devices_done / elapsed if elapsed > 0 else 0.0,
    )
