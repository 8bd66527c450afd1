"""Job manager: the service's bridge from HTTP to the engine.

A :class:`JobManager` owns a bounded submission queue and a small pool
of runner threads.  Each accepted job wraps one engine execution — a
``fleet`` population or a ``run`` over registered experiments — with the
full machinery the CLI fronts get: result cache, resilience policy,
chaos harness, cooperative cancellation, and a per-job JSONL manifest on
disk.  The manifest lists the job's work units — a fleet's shards or a
run's experiment x seed units — so a crashed or cancelled job resumes
to exactly those units with
``repro run --resume <spool>/jobs/<id>/manifest.jsonl``.

Every manifest record is *teed* into the job's in-memory event list the
moment it is fsynced, which is what ``GET /jobs/<id>/events`` streams:
progress over HTTP is exactly the manifest, record for record, plus
``{"record": "job"}`` lifecycle markers.

Backpressure is explicit: past ``queue_limit`` queued jobs,
:meth:`JobManager.submit` raises :class:`QueueFullError`, which the HTTP
layer maps to ``429 Retry-After``.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
import uuid
from pathlib import Path
from typing import Any

from repro.engine import (
    ChaosPlan,
    ExecutionPolicy,
    ResultCache,
    RunManifest,
    TraceStore,
    decompose,
    execute,
    resolve_jobs,
    summarize,
)
from repro.errors import ConfigurationError, ReproError
from repro.fleet import FleetSpec, run_fleet
from repro.obs.metrics import MetricsRegistry

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job never leaves.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

#: Hard bound on fleet sizes accepted over HTTP (memory guard: one row
#: per device is aggregated in the runner thread).
MAX_FLEET_DEVICES = 1_000_000

#: What a 429 tells the client to wait before resubmitting.
RETRY_AFTER_S = 2


class QueueFullError(ReproError):
    """The submission queue is at ``queue_limit``; retry later."""

    retry_after_s = RETRY_AFTER_S


def _utc() -> float:
    return time.time()


class Job:
    """One submitted job: request, state, events, and a cancel handle."""

    def __init__(self, job_id: str, request: dict[str, Any]) -> None:
        self.id = job_id
        self.request = request
        self.state = QUEUED
        self.error: str | None = None
        self.result: dict[str, Any] | None = None
        self.created_at = _utc()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.manifest_path: str | None = None
        self.cancel_event = threading.Event()
        self._events: list[dict[str, Any]] = []
        self._cond = threading.Condition()

    # -- state -------------------------------------------------------------------

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def snapshot(self) -> dict[str, Any]:
        """The job as ``GET /jobs/<id>`` reports it."""
        with self._cond:
            return {
                "id": self.id,
                "state": self.state,
                "request": self.request,
                "error": self.error,
                "result": self.result,
                "created_at": self.created_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "manifest": self.manifest_path,
                "events": len(self._events),
            }

    def transition(self, state: str, **fields: Any) -> None:
        """Move to ``state`` and append the lifecycle event record."""
        with self._cond:
            self.state = state
            if state == RUNNING:
                self.started_at = _utc()
            if state in TERMINAL_STATES:
                self.finished_at = _utc()
        self.append_event({"record": "job", "id": self.id, "state": state,
                           "t": _utc(), **fields})

    # -- events ------------------------------------------------------------------

    def append_event(self, record: dict[str, Any]) -> None:
        with self._cond:
            self._events.append(record)
            self._cond.notify_all()

    def events_after(self, cursor: int) -> list[dict[str, Any]]:
        with self._cond:
            return self._events[cursor:]

    def wait_events(self, cursor: int, timeout: float) -> list[dict[str, Any]]:
        """Events past ``cursor``, blocking up to ``timeout`` for news.

        Returns immediately once the job is terminal (nothing more will
        ever arrive) — the streaming loop's exit condition.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while not self._events[cursor:] and not self.terminal:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._cond.wait(remaining):
                    break
            return self._events[cursor:]


class _TeeManifest(RunManifest):
    """A run manifest that mirrors every fsynced record into the job."""

    def __init__(self, path: str | Path, job: Job) -> None:
        super().__init__(path)
        self._job = job

    def _write(self, record: dict[str, Any]) -> None:
        super()._write(record)
        self._job.append_event(record)


def parse_request(payload: Any) -> dict[str, Any]:
    """Validate a ``POST /jobs`` body into a normalised request dict.

    Two kinds: ``{"kind": "fleet", "devices": N, ...}`` and
    ``{"kind": "run", "experiments": [...], ...}``.  Raises
    :class:`ConfigurationError` (→ HTTP 400) on anything malformed.
    """
    if not isinstance(payload, dict):
        raise ConfigurationError("job request must be a JSON object")
    kind = payload.get("kind", "fleet")
    if kind not in ("fleet", "run"):
        raise ConfigurationError(f"unknown job kind {kind!r}")
    known = {"kind", "scale", "seed", "seeds", "jobs", "shards",
             "devices", "ops", "experiments", "fast"}
    unknown = set(payload) - known
    if unknown:
        raise ConfigurationError(f"unknown job fields: {sorted(unknown)}")

    def _int(name: str, default: int, low: int, high: int) -> int:
        value = payload.get(name, default)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigurationError(f"{name} must be an integer")
        if not low <= value <= high:
            raise ConfigurationError(
                f"{name} must be in [{low}, {high}], got {value}"
            )
        return value

    scale = payload.get("scale", 0.2)
    if (not isinstance(scale, (int, float)) or isinstance(scale, bool)
            or not 0.0 < scale <= 1.0):
        raise ConfigurationError(f"scale must be in (0, 1], got {scale!r}")
    request: dict[str, Any] = {"kind": kind, "scale": float(scale)}
    if payload.get("jobs") is not None:
        request["jobs"] = resolve_jobs(payload["jobs"])

    if kind == "fleet":
        request["devices"] = _int("devices", 100, 1, MAX_FLEET_DEVICES)
        request["seed"] = _int("seed", 0, -(2**31), 2**31)
        request["ops"] = _int("ops", 400, 1, 10_000_000)
        if payload.get("shards") is not None:
            request["shards"] = _int("shards", 1, 1, 100_000)
        fast = payload.get("fast", False)
        if not isinstance(fast, bool):
            raise ConfigurationError(f"fast must be a boolean, got {fast!r}")
        if fast:
            request["fast"] = True
        return request

    experiments = payload.get("experiments")
    if not isinstance(experiments, list) or not experiments or not all(
        isinstance(item, str) for item in experiments
    ):
        raise ConfigurationError(
            "run jobs need a non-empty 'experiments' list of ids"
        )
    from repro.experiments.registry import get_experiment

    for experiment_id in experiments:
        get_experiment(experiment_id)  # raises ConfigurationError if unknown
    request["experiments"] = experiments
    seeds = payload.get("seeds")
    if seeds is not None:
        if not isinstance(seeds, list) or not all(
            isinstance(seed, int) and not isinstance(seed, bool)
            for seed in seeds
        ):
            raise ConfigurationError("seeds must be a list of integers")
        request["seeds"] = seeds
    return request


class JobManager:
    """Bounded job queue + runner threads over the engine."""

    def __init__(
        self,
        *,
        spool_dir: str | Path,
        cache: ResultCache | None = None,
        trace_store: TraceStore | None = None,
        jobs: int | str | None = None,
        queue_limit: int = 8,
        runners: int = 1,
        policy: ExecutionPolicy | None = None,
        chaos: ChaosPlan | None = None,
        start: bool = True,
    ) -> None:
        if queue_limit < 1:
            raise ConfigurationError(f"queue_limit must be >= 1, got {queue_limit}")
        if runners < 1:
            raise ConfigurationError(f"runners must be >= 1, got {runners}")
        self.spool_dir = Path(spool_dir).expanduser()
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.cache = cache
        self.trace_store = trace_store
        self.jobs = resolve_jobs(jobs)
        self.policy = policy
        self.chaos = chaos
        self.metrics = MetricsRegistry()
        self._queue: queue.Queue[Job | None] = queue.Queue(maxsize=queue_limit)
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._lock = threading.Lock()
        self._running = 0
        self._stop = threading.Event()
        self._sequence = itertools.count(1)

        self.metrics.counter("serve_jobs_submitted_total",
                             "jobs accepted by POST /jobs")
        self.metrics.counter("serve_jobs_rejected_total",
                             "jobs rejected with 429 (queue full)")
        self.metrics.counter("serve_jobs_completed_total",
                             "jobs finished in state done")
        self.metrics.counter("serve_jobs_failed_total",
                             "jobs finished in state failed")
        self.metrics.counter("serve_jobs_cancelled_total",
                             "jobs finished in state cancelled")
        self.metrics.counter("serve_fleet_devices_total",
                             "fleet devices simulated (or replayed) "
                             "across all fleet jobs")
        self.metrics.gauge("serve_queue_depth", "jobs waiting to start",
                           fn=self._queue.qsize)
        self.metrics.gauge("serve_jobs_running", "jobs currently executing",
                           fn=lambda: self._running)

        self._threads = [
            threading.Thread(target=self._runner_loop, name=f"job-runner-{i}",
                             daemon=True)
            for i in range(runners)
        ]
        if start:
            self.start()

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        for thread in self._threads:
            if not thread.is_alive():
                thread.start()

    def shutdown(self, *, cancel_running: bool = True,
                 timeout: float = 10.0) -> None:
        """Stop the runners; optionally cancel whatever is in flight.

        Queued-but-unstarted jobs are marked cancelled so clients polling
        them see a terminal state rather than a job stuck in ``queued``.
        """
        self._stop.set()
        while True:  # drain the queue: nothing new may start
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            if job is not None and not job.terminal:
                self._finish(job, CANCELLED, error="server shutting down")
        if cancel_running:
            # Every non-terminal job, not just RUNNING ones: a runner may
            # have dequeued a job but not yet transitioned it.
            with self._lock:
                live = [job for job in self._jobs.values()
                        if not job.terminal]
            for job in live:
                job.cancel_event.set()
        for _ in self._threads:
            try:
                self._queue.put_nowait(None)  # wake idle runners
            except queue.Full:
                break
        for thread in self._threads:
            if thread.is_alive():
                thread.join(timeout=timeout)

    # -- submission / queries ----------------------------------------------------

    def submit(self, payload: Any) -> Job:
        """Validate, enqueue, and return the new job (still ``queued``)."""
        request = parse_request(payload)
        if self._stop.is_set():
            raise QueueFullError("server is shutting down")
        job_id = f"job-{next(self._sequence):06d}-{uuid.uuid4().hex[:8]}"
        job = Job(job_id, request)
        with self._lock:
            self._jobs[job_id] = job
            self._order.append(job_id)
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            with self._lock:
                del self._jobs[job_id]
                self._order.remove(job_id)
            self.metrics.get("serve_jobs_rejected_total").inc()
            raise QueueFullError(
                f"job queue full ({self._queue.maxsize} queued); "
                f"retry in {RETRY_AFTER_S}s"
            ) from None
        self.metrics.get("serve_jobs_submitted_total").inc()
        job.transition(QUEUED)
        return job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def list_jobs(self) -> list[Job]:
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def cancel(self, job_id: str) -> Job | None:
        """Request cancellation; queued jobs finish immediately, running
        jobs stop cooperatively at the next scheduler poll."""
        job = self.get(job_id)
        if job is None:
            return None
        job.cancel_event.set()
        if job.state == QUEUED and not job.terminal:
            self._finish(job, CANCELLED, error="cancelled while queued")
        return job

    # -- execution ---------------------------------------------------------------

    def _runner_loop(self) -> None:
        while not self._stop.is_set():
            try:
                job = self._queue.get(timeout=0.2)
            except queue.Empty:
                continue
            if job is None:  # shutdown wake-up
                continue
            if job.terminal:  # cancelled while queued
                continue
            with self._lock:
                self._running += 1
            try:
                self._run_job(job)
            except Exception as exc:  # defensive: a runner must survive
                if not job.terminal:
                    self._finish(job, FAILED, error=f"internal error: {exc!r}")
            finally:
                with self._lock:
                    self._running -= 1

    def _finish(self, job: Job, state: str, *, error: str | None = None,
                result: dict[str, Any] | None = None) -> None:
        job.error = error
        job.result = result
        counter = {
            DONE: "serve_jobs_completed_total",
            FAILED: "serve_jobs_failed_total",
            CANCELLED: "serve_jobs_cancelled_total",
        }[state]
        self.metrics.get(counter).inc()
        job.transition(state, error=error)

    def _run_job(self, job: Job) -> None:
        if job.cancel_event.is_set():
            self._finish(job, CANCELLED, error="cancelled while queued")
            return
        job.transition(RUNNING)
        job_dir = self.spool_dir / "jobs" / job.id
        job_dir.mkdir(parents=True, exist_ok=True)
        manifest_path = job_dir / "manifest.jsonl"
        job.manifest_path = str(manifest_path)
        request = job.request
        jobs = request.get("jobs", self.jobs)
        with _TeeManifest(manifest_path, job) as manifest:
            if request["kind"] == "fleet":
                run = run_fleet(
                    FleetSpec(
                        devices=request["devices"],
                        seed=request["seed"],
                        scale=request["scale"],
                        ops_per_device=request["ops"],
                    ),
                    jobs=jobs,
                    shards=request.get("shards"),
                    fast=request.get("fast", False),
                    cache=self.cache,
                    trace_store=self.trace_store,
                    manifest=manifest,
                    policy=self.policy,
                    chaos=self.chaos,
                    cancel=job.cancel_event,
                    metrics=self.metrics,
                )
                counts = summarize(run.outcomes)
                if run.cancelled:
                    self._finish(job, CANCELLED,
                                 error="cancelled before completion",
                                 result={"counts": counts})
                elif run.ok:
                    self._finish(job, DONE, result={
                        "counts": counts, "summary": run.summary,
                    })
                else:
                    errors = [outcome.error for outcome in run.outcomes
                              if not outcome.ok]
                    self._finish(job, FAILED, error="; ".join(errors[:3]),
                                 result={"counts": counts})
                return

            units = decompose(
                request["experiments"],
                scale=request["scale"],
                seeds=tuple(request.get("seeds") or (None,)),
            )
            outcomes = execute(
                units,
                jobs=jobs,
                cache=self.cache,
                trace_store=self.trace_store,
                manifest=manifest,
                policy=self.policy,
                chaos=self.chaos,
                cancel=job.cancel_event,
                metrics=self.metrics,
            )
            counts = summarize(outcomes)
            if counts["cancelled"]:
                self._finish(job, CANCELLED,
                             error="cancelled before completion",
                             result={"counts": counts})
            elif counts["errors"]:
                errors = [outcome.error for outcome in outcomes
                          if not outcome.ok and not outcome.cancelled]
                self._finish(job, FAILED, error="; ".join(errors[:3]),
                             result={"counts": counts})
            else:
                self._finish(job, DONE, result={"counts": counts})
