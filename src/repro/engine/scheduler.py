"""The execution scheduler: fan work units out over worker processes.

Design:

* **Decomposition** happens upstream (:func:`repro.engine.unit.decompose`);
  the scheduler receives a flat list of independent units.
* **Cache first.**  Every unit's content-addressed key is checked against
  the :class:`~repro.engine.result_cache.ResultCache` in the parent before
  any worker spawns — re-runs and crashed-run resumes are pure cache
  replay.
* **Explicit seeds.**  Workers receive each unit's (scale, seed) in the
  unit itself and thread them through
  :func:`~repro.experiments.runner.run_experiment`; nothing mutates the
  process-global default seed, so results are independent of scheduling
  order and process boundaries.
* **Prewarm what is read.**  Before running anything, the parent
  generates into the :class:`~repro.engine.trace_store.TraceStore` the
  traces each pending unit's experiment declares
  (:attr:`~repro.experiments.base.Experiment.traces`), once per distinct
  (scale, seed).  Fleet shards declare none — they synthesise their own
  per-device traces — so a fleet run writes nothing to the store.
* **jobs=1 runs in-process** — no pool, no pickling — and therefore
  produces reports byte-identical to the historical serial runner.
* **Failures are contained, and mostly survived.**  A transient unit
  failure (worker exception, per-unit timeout) is retried on the
  :class:`~repro.engine.resilience.ExecutionPolicy`'s backoff schedule;
  a dead worker breaks only the units actually in flight, which are
  re-queued onto a rebuilt pool; repeated breakage degrades the sweep to
  the in-process serial path rather than failing it.  Terminal failures
  are recorded in the manifest and reported in the unit's outcome;
  completed units still land in the cache, so the next invocation (or
  ``repro run --resume``) resumes instead of starting over.
* **Observed units are checked, not cached.**  With ``observe_dir`` every
  unit runs under an observability session, writes its artifacts, and
  fails if any simulation's layer attribution disagrees with its report
  (:func:`run_unit_observed`).  Such units neither read nor write the
  result cache.

Units are submitted in a window of at most ``jobs`` at a time, so a
submitted future is a *running* future: per-unit deadlines are
meaningful, and a pool breakage can only ever implicate the in-flight
window — queued units are simply handed to the next pool, unblemished.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.engine import chaos as chaos_mod
from repro.engine.chaos import ChaosPlan
from repro.engine.fingerprint import (
    _digest,
    cache_key,
    device_fingerprint,
    package_version,
)
from repro.engine.jobs import resolve_jobs
from repro.engine.manifest import RunManifest
from repro.engine.resilience import ExecutionPolicy
from repro.engine.result_cache import ResultCache
from repro.engine.trace_store import TraceStore
from repro.engine.unit import WorkUnit
from repro.errors import ConfigurationError, ReproError
from repro.experiments.base import ExperimentResult

ProgressCallback = Callable[[int, int, "UnitOutcome"], None]

#: Error string recorded for units abandoned by a cooperative cancel
#: (SIGINT in ``repro run``, job cancellation in ``repro serve``).  The
#: units stay ``outcome="error"`` in the manifest, so a later
#: ``repro run --resume`` re-executes exactly these.
CANCELLED_ERROR = "cancelled before completion (resume with --resume)"

#: Longest the pool loop will sit in ``wait()`` while a cancel event is
#: armed; bounds cancellation latency without busying the parent.
_CANCEL_POLL_S = 0.25


class EngineError(ReproError):
    """A work unit failed inside the execution engine."""


class ObservationError(EngineError):
    """An observed unit's layer attribution failed its checks.

    Raised after the unit's artifacts are written; ``artifacts`` maps
    kind -> path, so the failed unit's manifest record still points at
    them.
    """

    def __init__(self, message: str, artifacts: dict[str, str]) -> None:
        super().__init__(message)
        self.artifacts = artifacts


@dataclass(frozen=True)
class UnitOutcome:
    """What happened to one work unit."""

    unit: WorkUnit
    key: str
    result: ExperimentResult | None
    cache: str  # "hit" | "miss" | "off"
    worker: int
    wall_s: float
    error: str | None = None
    #: observability artifact paths ({"trace": ..., "metrics": ...,
    #: "layers": ...}) when the run was observed; None otherwise
    artifacts: dict[str, str] | None = None
    #: transient failures retried before this outcome (0 = first try)
    retries: int = 0
    #: times the unit was re-queued after a pool breakage/timeout kill
    requeued: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def cancelled(self) -> bool:
        return self.error == CANCELLED_ERROR


@dataclass
class _Task:
    """Mutable scheduling state for one pending unit."""

    index: int
    unit: WorkUnit
    key: str
    retries: int = 0
    requeued: int = 0
    not_before: float = field(default=0.0)  # monotonic clock


def run_unit_inline(unit: WorkUnit) -> ExperimentResult:
    """Execute one unit in the current process (no cache, no pool).

    This is the engine's serial primitive: exactly the historical
    ``run_experiment`` call, with the unit's seed threaded explicitly.
    The benchmark harness times drivers through this path.
    """
    from repro.experiments.runner import run_experiment

    return run_experiment(
        unit.experiment_id,
        scale=unit.scale,
        seed=unit.seed,
        kernel=unit.kernel,
        **unit.kwargs_dict(),
    )


def _artifact_stem(unit: WorkUnit) -> str:
    """``<experiment>-s<scale>[-seed<seed>][-<digest>]``: units that also
    set a kernel or driver kwargs (fleet shards) get a digest of both, so
    no two distinct units share an artifact path."""
    stem = f"{unit.experiment_id}-s{float(unit.scale)!r}"
    if unit.seed is not None:
        stem += f"-seed{unit.seed}"
    if unit.kernel is not None or unit.kwargs:
        stem += "-" + _digest([unit.kernel, unit.kwargs])[:10]
    return stem


def run_unit_observed(
    unit: WorkUnit,
    trace_dir: str | None = None,
    metrics_dir: str | None = None,
) -> tuple[ExperimentResult, dict[str, str]]:
    """Execute one unit under an :class:`~repro.obs.session.ObservabilitySession`
    and check every simulation it ran.

    The session is installed process-globally for the duration, so every
    simulation the driver runs is traced (observation does not change
    results — the session only reads the collector's floats).  The
    Chrome trace goes into ``trace_dir``; the metrics JSON and the
    per-run layer attribution tables (``<stem>.layers.txt``) go into
    ``metrics_dir``.  Returns ``(result, artifacts)`` where artifacts
    maps kind -> written path.

    Once the artifacts are written, raises :class:`ObservationError` if
    any simulation fails :meth:`ObservabilitySession.attribution_problems`.
    A ring that dropped events gets a ``warning:`` line on stderr: the
    trace then keeps only the newest events.
    """
    import json
    import sys
    from pathlib import Path

    from repro.obs import ObservabilitySession
    from repro.obs import runtime as obs_runtime

    # Artifact directories are created up front — normally already done
    # once by the parent (see execute); exist_ok keeps direct callers and
    # concurrent workers race-free.
    if trace_dir is not None:
        Path(trace_dir).mkdir(parents=True, exist_ok=True)
    if metrics_dir is not None:
        Path(metrics_dir).mkdir(parents=True, exist_ok=True)

    session = ObservabilitySession()
    with obs_runtime.observed(session):
        result = run_unit_inline(unit)
    stem = _artifact_stem(unit)
    artifacts: dict[str, str] = {}
    if trace_dir is not None:
        path = session.tracer.write_chrome(
            Path(trace_dir) / f"{stem}.trace.json"
        )
        artifacts["trace"] = str(path)
    if metrics_dir is not None:
        path = Path(metrics_dir) / f"{stem}.metrics.json"
        with open(path, "w") as stream:
            # json.dumps takes the C encoder; json.dump the pure-Python one.
            stream.write(json.dumps(session.to_json_dict()))
        artifacts["metrics"] = str(path)
        path = Path(metrics_dir) / f"{stem}.layers.txt"
        path.write_text(session.layer_tables())
        artifacts["layers"] = str(path)
    tracer = session.tracer
    if tracer.dropped:
        # Printed here, not by the parent: a pool worker shares its stderr.
        print(f"warning: {unit.label}: the event ring dropped "
              f"{tracer.dropped} of {tracer.emitted} events; the trace "
              f"keeps only the newest {tracer.capacity}",
              file=sys.stderr, flush=True)
    problems = session.attribution_problems()
    if problems:
        raise ObservationError(
            f"{unit.label}: " + "; ".join(problems), artifacts
        )
    return result, artifacts


# -- worker-process entry points (module-level for picklability) -----------

def _worker_init(store_root: str | None,
                 chaos_plan: dict[str, Any] | None = None,
                 chaos_parent_pid: int | None = None) -> None:
    # Forked workers inherit the parent's Python-level signal state.  In
    # particular an asyncio parent (repro serve) has a signal *wakeup fd*
    # wired to its event loop: if a worker kept it and then caught
    # SIGTERM (pool rebuild kills workers via terminate()), the child's
    # handler would write into the shared socketpair and the parent's
    # loop would see a phantom shutdown signal.  Detach it and restore
    # sane per-process handlers: SIGINT ignored (the parent coordinates
    # cooperative cancel), SIGTERM default (terminate() must kill us).
    import signal as _signal

    try:
        _signal.set_wakeup_fd(-1)
        _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
        _signal.signal(_signal.SIGTERM, _signal.SIG_DFL)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass
    if store_root is not None:
        from repro.experiments import traces_cache

        traces_cache.configure_trace_store(TraceStore(store_root))
    if chaos_plan is not None:
        chaos_mod.set_active(
            ChaosPlan.from_json_dict(chaos_plan).bound_to_parent(chaos_parent_pid)
        )


def _run_unit(
    unit: WorkUnit, observe_dir: str | None
) -> tuple[ExperimentResult | None, str | None, dict[str, str] | None]:
    """``(result, error, artifacts)`` for one attempt at ``unit``; an
    observed unit that failed its checks keeps its artifacts."""
    try:
        if observe_dir is None:
            return run_unit_inline(unit), None, None
        result, artifacts = run_unit_observed(unit, observe_dir, observe_dir)
        return result, None, artifacts
    except ObservationError as exc:
        return None, traceback.format_exc(), exc.artifacts
    except Exception:
        return None, traceback.format_exc(), None


def _worker_run(
    unit: WorkUnit, observe_dir: str | None = None
) -> tuple[int, float, ExperimentResult | None, str | None, dict[str, str] | None]:
    start = time.perf_counter()
    try:
        chaos_mod.maybe_inject(unit)  # may exit/hang/raise when active
    except Exception:
        result, error, artifacts = None, traceback.format_exc(), None
    else:
        result, error, artifacts = _run_unit(unit, observe_dir)
    return os.getpid(), time.perf_counter() - start, result, error, artifacts


def _retryable(error: str | None, artifacts: dict[str, str] | None) -> bool:
    """A failed attempt is worth retrying unless it is an observed unit
    that failed its checks (it has artifacts): those are deterministic."""
    return error is not None and artifacts is None


def _trace_requests(
    units: Sequence[WorkUnit],
) -> dict[tuple[float, int], tuple[str, ...]]:
    """(scale, effective seed) -> the ordered union of the traces the
    units' experiments declare (:attr:`Experiment.traces`), sorted by
    key.  Every key appears, even with no traces; an unknown experiment
    declares none, and its unit then fails in the worker's driver lookup."""
    from repro.experiments import traces_cache
    from repro.experiments.registry import all_experiments

    experiments = all_experiments()
    default = traces_cache.default_seed()
    requests: dict[tuple[float, int], dict[str, None]] = {}
    for unit in units:
        experiment = experiments.get(unit.experiment_id)
        names = experiment.traces if experiment is not None else ()
        seed = default if unit.seed is None else unit.seed
        requests.setdefault((unit.scale, seed), {}).update(dict.fromkeys(names))
    return {key: tuple(names) for key, names in sorted(requests.items())}


def execute(
    units: Sequence[WorkUnit],
    *,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    trace_store: TraceStore | None = None,
    manifest: RunManifest | None = None,
    progress: ProgressCallback | None = None,
    observe_dir: str | None = None,
    policy: ExecutionPolicy | None = None,
    metrics: Any | None = None,
    chaos: ChaosPlan | None = None,
    resumed_from: str | None = None,
    cancel: threading.Event | None = None,
) -> list[UnitOutcome]:
    """Run every unit; returns one :class:`UnitOutcome` per unit, in the
    input order.  Never raises for a unit failure — inspect ``.error``
    (or use :func:`raise_on_errors`).

    ``policy`` configures resilience (per-unit timeouts, retry budget,
    pool-rebuild ladder); the default retries nothing but still survives
    pool breakage by re-queueing and, past ``max_rebuilds`` consecutive
    breakages, degrading to the serial path.  ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`, or the active
    observability session's registry when omitted) receives
    ``engine_*_total`` counters for every recovery event; the same events
    land in the manifest as ``event`` records.  ``chaos`` activates the
    fault-injection harness of :mod:`repro.engine.chaos` in the workers.

    ``observe_dir`` turns on per-unit observability: every unit runs
    through :func:`run_unit_observed`, writing its Chrome trace, metrics
    JSON and layer tables into that directory, with the paths carried on
    :attr:`UnitOutcome.artifacts` and in the run manifest; a unit whose
    layer attribution fails its checks fails (its artifacts still
    written).  Observed units neither read nor write the result cache:
    a replay has nothing to record, and observation forces the batched
    path, so its result must not answer for a vector unit's key.

    ``cancel`` is a cooperative stop request (a ``threading.Event``
    another thread or a signal handler may set): in-flight futures are
    cancelled and their workers killed, every unfinished unit is
    recorded with :data:`CANCELLED_ERROR` (so ``--resume`` re-executes
    exactly those), and a final ``cancel`` event lands in the manifest.
    The serial path cannot preempt a running driver; it stops between
    units."""
    try:
        jobs = resolve_jobs(jobs)
    except ConfigurationError as exc:
        raise EngineError(str(exc)) from None
    policy = policy if policy is not None else ExecutionPolicy()
    if chaos is not None:
        chaos = chaos.bound_to_parent()
    # The artifact directory is created once, in the parent, before any
    # worker can race to create it.
    if observe_dir is not None:
        os.makedirs(observe_dir, exist_ok=True)
    observing = observe_dir is not None
    if metrics is None:
        from repro.obs import runtime as obs_runtime

        session = obs_runtime.active()
        metrics = session.registry if session is not None else None

    fingerprint = device_fingerprint()
    version = package_version()
    total = len(units)
    done = 0
    outcomes: dict[int, UnitOutcome] = {}

    def count(name: str) -> None:
        if metrics is not None:
            metrics.counter(name).inc()

    def event(kind: str, **fields: Any) -> None:
        if manifest is not None:
            manifest.record_event(kind, **fields)

    if manifest is not None:
        manifest.record_run(
            jobs=jobs,
            units=total,
            scale=units[0].scale if units else 0.0,
            seeds=tuple(sorted({unit.seed for unit in units},
                               key=lambda s: (s is not None, s))),
            fingerprint=fingerprint,
            version=version,
            cache_dir=str(cache.root) if cache is not None else None,
            experiment_ids=list(dict.fromkeys(
                unit.experiment_id for unit in units
            )),
            policy=policy.to_json_dict(),
            resumed_from=resumed_from,
            kernel=units[0].kernel if units else None,
            work_units=units,
        )

    def finish(index: int, outcome: UnitOutcome) -> None:
        nonlocal done
        outcomes[index] = outcome
        done += 1
        if manifest is not None:
            manifest.record_unit(
                outcome.unit,
                key=outcome.key,
                cache=outcome.cache,
                worker=outcome.worker,
                wall_s=outcome.wall_s,
                outcome="ok" if outcome.ok else "error",
                error=outcome.error,
                artifacts=outcome.artifacts,
                retries=outcome.retries,
                requeued=outcome.requeued,
            )
        if progress is not None:
            progress(done, total, outcome)

    # Corrupt-entry quarantines surface through the manifest/metrics
    # unless the caller already listens for them.
    restore_quarantine_hook = False
    if cache is not None and cache.on_quarantine is None:
        def _on_quarantine(key: str, destination: Any) -> None:
            event("quarantine", key=key, path=str(destination))
            count("engine_cache_quarantines_total")

        cache.on_quarantine = _on_quarantine
        restore_quarantine_hook = True

    try:
        # Resolve cache hits in the parent before spawning anything.  An
        # observed run recomputes everything.
        pending: list[_Task] = []
        for index, unit in enumerate(units):
            key = cache_key(unit, fingerprint=fingerprint, version=version)
            cached = (
                cache.get(key) if cache is not None and not observing else None
            )
            if cached is not None:
                finish(index, UnitOutcome(
                    unit=unit, key=key, result=cached, cache="hit",
                    worker=os.getpid(), wall_s=0.0,
                ))
            else:
                pending.append(_Task(index=index, unit=unit, key=key))

        if pending and trace_store is not None:
            requests = _trace_requests([task.unit for task in pending])
            for (scale, seed), names in requests.items():
                trace_store.prewarm(names, scale, seed)

        cache_state = "miss" if cache is not None and not observing else "off"

        def record_miss(task: _Task, worker: int, wall_s: float,
                        result: ExperimentResult | None, error: str | None,
                        artifacts: dict[str, str] | None = None) -> None:
            if result is not None and cache is not None and not observing:
                path = cache.put(task.key, result, meta={
                    "experiment_id": task.unit.experiment_id,
                    "scale": task.unit.scale,
                    "seed": task.unit.seed,
                    "fingerprint": fingerprint,
                    "version": version,
                })
                if chaos is not None:
                    for action in chaos.actions_for(task.unit, "corrupt"):
                        if chaos.claim(action):
                            chaos_mod.corrupt_file(path)
                            event("chaos-corrupt", unit=task.unit.label,
                                  key=task.key, path=str(path))
                            count("engine_chaos_corruptions_total")
            finish(task.index, UnitOutcome(
                unit=task.unit, key=task.key, result=result, cache=cache_state,
                worker=worker, wall_s=wall_s, error=error, artifacts=artifacts,
                retries=task.retries, requeued=task.requeued,
            ))

        def run_serially(task: _Task) -> None:
            """In-process execution with the policy's retry schedule.

            Used by ``jobs=1`` and by the degraded path.  Wall-clock
            timeouts need process isolation and do not apply here."""
            while True:
                start = time.perf_counter()
                result, error, artifacts = _run_unit(task.unit, observe_dir)
                wall_s = time.perf_counter() - start
                if _retryable(error, artifacts) and task.retries < policy.retries:
                    delay = policy.delay_s(task.key, task.retries)
                    task.retries += 1
                    event("retry", unit=task.unit.label, reason="error",
                          attempt=task.retries, delay_s=delay)
                    count("engine_unit_retries_total")
                    time.sleep(delay)
                    continue
                record_miss(task, os.getpid(), wall_s, result, error, artifacts)
                return

        def cancel_remaining(tasks: Sequence[_Task]) -> None:
            """Record every unfinished unit as cancelled (one event)."""
            ordered = sorted(tasks, key=lambda t: t.index)
            if not ordered:
                return
            event("cancel", units=[task.unit.label for task in ordered])
            for task in ordered:
                count("engine_units_cancelled_total")
                record_miss(task, os.getpid(), 0.0, None, CANCELLED_ERROR, None)

        if jobs == 1 or not pending:
            # In-process serial path: byte-identical to the historical
            # runner (the retry loop only re-enters on failure).  A
            # cancel takes effect between units — a running driver
            # cannot be preempted in-process.
            for position, task in enumerate(pending):
                if cancel is not None and cancel.is_set():
                    cancel_remaining(pending[position:])
                    break
                run_serially(task)
        else:
            _execute_pool(
                pending, jobs=jobs, policy=policy, chaos=chaos,
                trace_store=trace_store, observe_dir=observe_dir,
                record_miss=record_miss,
                run_serially=run_serially, event=event, count=count,
                cancel=cancel, cancel_remaining=cancel_remaining,
            )
    finally:
        if restore_quarantine_hook and cache is not None:
            cache.on_quarantine = None

    return [outcomes[index] for index in range(total)]


def _execute_pool(
    pending: list[_Task],
    *,
    jobs: int,
    policy: ExecutionPolicy,
    chaos: ChaosPlan | None,
    trace_store: TraceStore | None,
    observe_dir: str | None,
    record_miss: Callable[..., None],
    run_serially: Callable[[_Task], None],
    event: Callable[..., None],
    count: Callable[[str], None],
    cancel: threading.Event | None = None,
    cancel_remaining: Callable[[Sequence[_Task]], None] = lambda tasks: None,
) -> None:
    """Fan ``pending`` over a process pool, surviving hangs and breakage."""
    store_root = str(trace_store.root) if trace_store is not None else None
    max_workers = min(jobs, len(pending))
    chaos_payload = chaos.to_json_dict() if chaos is not None else None
    chaos_parent = chaos.parent_pid if chaos is not None else None

    def new_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_worker_init,
            initargs=(store_root, chaos_payload, chaos_parent),
        )

    queue: list[_Task] = list(pending)
    in_flight: dict[Future, _Task] = {}
    deadlines: dict[Future, float] = {}
    pool = new_pool()
    breakages = 0
    degraded = False

    def dead_worker_pids() -> list[int]:
        processes = getattr(pool, "_processes", None) or {}
        return sorted(
            p.pid for p in processes.values()
            if p.exitcode not in (None, 0) and p.pid is not None
        )

    def requeue_in_flight(reason: str, dead: list[int]) -> None:
        victims = sorted(in_flight.values(), key=lambda t: t.index)
        for future in in_flight:
            future.cancel()
        for task in victims:
            task.requeued += 1
            queue.append(task)
            count("engine_unit_requeues_total")
        queue.sort(key=lambda t: t.index)
        in_flight.clear()
        deadlines.clear()
        if victims:
            event("requeue", reason=reason,
                  units=[task.unit.label for task in victims],
                  dead_workers=dead)

    def teardown_pool(kill: bool) -> None:
        if kill:
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:
                    pass
        pool.shutdown(wait=False, cancel_futures=True)

    def fill() -> bool:
        """Top the window up; False if the pool turned out to be broken."""
        now = time.monotonic()
        while queue and len(in_flight) < max_workers:
            eligible = next(
                (i for i, task in enumerate(queue) if task.not_before <= now),
                None,
            )
            if eligible is None:
                return True
            task = queue.pop(eligible)
            try:
                future = pool.submit(_worker_run, task.unit, observe_dir)
            except Exception:  # BrokenExecutor: pool died between windows
                queue.append(task)
                queue.sort(key=lambda t: t.index)
                return False
            in_flight[future] = task
            if policy.timeout_s is not None:
                deadlines[future] = time.monotonic() + policy.timeout_s
        return True

    def handle_breakage() -> None:
        nonlocal pool, breakages, degraded
        dead = dead_worker_pids()
        requeue_in_flight("pool-breakage", dead)
        teardown_pool(kill=False)
        breakages += 1
        count("engine_pool_rebuilds_total")
        if breakages > policy.max_rebuilds:
            degraded = True
            event("degrade", after_rebuilds=breakages - 1, dead_workers=dead)
            count("engine_pool_degradations_total")
        else:
            pool = new_pool()
            event("rebuild", consecutive=breakages, dead_workers=dead)

    def cancel_now() -> None:
        """Cancel in-flight futures, kill their workers, record the rest."""
        victims = list(in_flight.values()) + queue
        for future in in_flight:
            future.cancel()
        teardown_pool(kill=True)
        in_flight.clear()
        deadlines.clear()
        queue.clear()
        cancel_remaining(victims)

    while (queue or in_flight) and not degraded:
        if cancel is not None and cancel.is_set():
            cancel_now()
            return
        if not fill():
            handle_breakage()
            continue
        if not in_flight:
            # Everything schedulable is waiting out a backoff.
            wake = min(task.not_before for task in queue)
            delay = max(0.0, wake - time.monotonic())
            if cancel is not None:
                delay = min(delay, _CANCEL_POLL_S)
            time.sleep(delay)
            continue

        wait_until = min(deadlines.values()) if deadlines else None
        if queue:
            backoff_wake = min(task.not_before for task in queue)
            if backoff_wake > time.monotonic() and len(in_flight) < max_workers:
                wait_until = (
                    backoff_wake if wait_until is None
                    else min(wait_until, backoff_wake)
                )
        timeout = (
            None if wait_until is None
            else max(0.0, wait_until - time.monotonic())
        )
        if cancel is not None:
            # Bound the wait so an armed cancel is honoured promptly
            # even when nothing is due to finish or time out.
            timeout = (
                _CANCEL_POLL_S if timeout is None
                else min(timeout, _CANCEL_POLL_S)
            )
        finished, _ = wait(set(in_flight), timeout=timeout,
                           return_when=FIRST_COMPLETED)

        broken = False
        for future in finished:
            task = in_flight[future]
            try:
                worker, wall_s, result, error, artifacts = future.result()
            except Exception:
                # The pool broke under this future (worker killed).  The
                # task is requeued with the rest of the window below —
                # its outcome is never an inherited parent traceback.
                broken = True
                continue
            del in_flight[future]
            deadlines.pop(future, None)
            breakages = 0
            if _retryable(error, artifacts) and task.retries < policy.retries:
                delay = policy.delay_s(task.key, task.retries)
                task.retries += 1
                task.not_before = time.monotonic() + delay
                event("retry", unit=task.unit.label, reason="error",
                      attempt=task.retries, delay_s=delay, worker=worker)
                count("engine_unit_retries_total")
                queue.append(task)
                queue.sort(key=lambda t: t.index)
            else:
                record_miss(task, worker, wall_s, result, error, artifacts)

        if broken:
            handle_breakage()
            continue

        if deadlines:
            now = time.monotonic()
            expired = [f for f, deadline in deadlines.items() if deadline <= now]
            if expired:
                # A hung worker cannot be cancelled — kill the pool,
                # salvage the rest of the window, and retry (or fail)
                # the overdue units.
                for future in expired:
                    task = in_flight.pop(future)
                    deadlines.pop(future, None)
                    count("engine_unit_timeouts_total")
                    if task.retries < policy.retries:
                        delay = policy.delay_s(task.key, task.retries)
                        task.retries += 1
                        task.not_before = now + delay
                        event("retry", unit=task.unit.label, reason="timeout",
                              attempt=task.retries, delay_s=delay)
                        count("engine_unit_retries_total")
                        queue.append(task)
                        queue.sort(key=lambda t: t.index)
                    else:
                        record_miss(
                            task, -1, policy.timeout_s, None,
                            f"unit exceeded its {policy.timeout_s:g}s "
                            f"wall-clock timeout (worker pool killed); "
                            f"retries exhausted ({task.retries})",
                            None,
                        )
                requeue_in_flight("timeout-kill", [])
                teardown_pool(kill=True)
                pool = new_pool()

    if degraded:
        # The pool kept dying; finish the sweep where nothing can break.
        remaining = sorted(queue, key=lambda t: t.index)
        for position, task in enumerate(remaining):
            if cancel is not None and cancel.is_set():
                cancel_remaining(remaining[position:])
                return
            run_serially(task)
        return

    pool.shutdown(wait=True)


def raise_on_errors(outcomes: Sequence[UnitOutcome]) -> None:
    """Raise :class:`EngineError` summarising any failed outcomes."""
    failed = [outcome for outcome in outcomes if not outcome.ok]
    if failed:
        details = "\n\n".join(
            f"{outcome.unit.label}:\n{outcome.error}" for outcome in failed
        )
        raise EngineError(
            f"{len(failed)} of {len(outcomes)} work unit(s) failed:\n{details}"
        )


def summarize(outcomes: Sequence[UnitOutcome]) -> dict[str, Any]:
    """Aggregate counts for progress footers and tests."""
    return {
        "units": len(outcomes),
        "ok": sum(outcome.ok for outcome in outcomes),
        "errors": sum(not outcome.ok for outcome in outcomes),
        "hits": sum(outcome.cache == "hit" for outcome in outcomes),
        "misses": sum(outcome.cache == "miss" for outcome in outcomes),
        "wall_s": sum(outcome.wall_s for outcome in outcomes),
        "retries": sum(outcome.retries for outcome in outcomes),
        "requeued": sum(outcome.requeued for outcome in outcomes),
        "cancelled": sum(outcome.cancelled for outcome in outcomes),
    }
