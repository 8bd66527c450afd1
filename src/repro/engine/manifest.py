"""Run manifests: a crash-safe JSONL audit trail of one engine run.

The first record describes the run (``"record": "run"`` — jobs, scale,
seeds, experiment ids, resilience policy, cache/fingerprint provenance);
each ``"record": "unit"`` record describes one completed work unit (wall
time, cache hit/miss, worker pid, retry/requeue counts, outcome); and
``"record": "event"`` records log engine incidents — retries, requeues,
pool rebuilds, degradation to serial, cache quarantines — as they happen.

Every append is flushed *and fsynced* before the writer moves on, so a
manifest survives SIGKILL mid-run with a valid prefix: everything that
finished is durably recorded, and ``repro run --resume <manifest>``
(see :func:`resume_spec`) replays exactly that prefix from the result
cache and re-executes only the remainder.

Schema v2 adds ``experiment_ids``/``policy``/``resumed_from``/``schema``
to the run record and ``retries``/``requeued`` to unit records.  Schema
v3 lists the run's ``work_units`` (experiment id, scale, seed, kernel,
JSON kwargs), so a resume re-creates exactly the recorded units — a
fleet's shards included.  Older manifests still parse but cannot drive
a resume.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, IO, Sequence

from repro.engine.unit import WorkUnit, freeze_kwargs
from repro.errors import ConfigurationError

#: Manifest schema generation (bumped when records gain load-bearing fields).
SCHEMA_VERSION = 3

#: Fields every unit record carries (tested as the manifest schema).
UNIT_FIELDS = (
    "record", "experiment_id", "scale", "seed", "kernel", "kwargs", "key",
    "cache", "worker", "wall_s", "outcome", "error", "artifacts",
    "retries", "requeued",
)

#: Incident kinds an ``event`` record may carry.
EVENT_KINDS = (
    "retry", "requeue", "rebuild", "degrade", "quarantine", "chaos-corrupt",
    "cancel",
)


class RunManifest:
    """Append-fsync JSONL writer for one engine run."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path).expanduser()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._stream: IO[str] | None = None

    def _write(self, record: dict[str, Any]) -> None:
        if self._stream is None:
            self._stream = open(self.path, "a")
        self._stream.write(json.dumps(record, sort_keys=True) + "\n")
        self._stream.flush()
        os.fsync(self._stream.fileno())

    def record_run(
        self,
        *,
        jobs: int,
        units: int,
        scale: float,
        seeds: tuple[int | None, ...],
        fingerprint: str,
        version: str,
        cache_dir: str | None,
        experiment_ids: Sequence[str] | None = None,
        policy: dict[str, Any] | None = None,
        resumed_from: str | None = None,
        kernel: str | None = None,
        work_units: Sequence[WorkUnit] = (),
    ) -> None:
        self._write(
            {
                "record": "run",
                "schema": SCHEMA_VERSION,
                "started": time.time(),
                "jobs": jobs,
                "units": units,
                "scale": scale,
                "seeds": list(seeds),
                "kernel": kernel,
                "experiment_ids": (
                    list(experiment_ids) if experiment_ids is not None else None
                ),
                "policy": policy,
                "resumed_from": resumed_from,
                "work_units": [
                    {"experiment_id": unit.experiment_id, "scale": unit.scale,
                     "seed": unit.seed, "kernel": unit.kernel,
                     "kwargs": dict(unit.kwargs)}
                    for unit in work_units
                ],
                "fingerprint": fingerprint,
                "version": version,
                "cache_dir": cache_dir,
            }
        )

    def record_unit(
        self,
        unit: WorkUnit,
        *,
        key: str,
        cache: str,
        worker: int,
        wall_s: float,
        outcome: str,
        error: str | None = None,
        artifacts: dict[str, str] | None = None,
        retries: int = 0,
        requeued: int = 0,
    ) -> None:
        self._write(
            {
                "record": "unit",
                "experiment_id": unit.experiment_id,
                "scale": unit.scale,
                "seed": unit.seed,
                "kernel": unit.kernel,
                "kwargs": {name: repr(value) for name, value in unit.kwargs},
                "key": key,
                "cache": cache,
                "worker": worker,
                "wall_s": round(wall_s, 6),
                "outcome": outcome,
                "error": error,
                "artifacts": artifacts,
                "retries": retries,
                "requeued": requeued,
            }
        )

    def record_event(self, kind: str, **fields: Any) -> None:
        """Append one engine incident (retry/requeue/rebuild/...)."""
        self._write({"record": "event", "kind": kind, "t": time.time(),
                     **fields})

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> RunManifest:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_manifest(path: str | Path) -> list[dict[str, Any]]:
    """Parse a manifest back into its records.

    Tolerates a torn final line (a writer killed mid-append before the
    fsync landed): the valid prefix is returned rather than raising.
    """
    records = []
    with open(Path(path).expanduser()) as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                break  # torn tail; everything before it is intact
    return records


def resume_spec(path: str | Path) -> dict[str, Any]:
    """What a ``repro run --resume <manifest>`` needs to continue a run.

    Returns the original run's work ``units`` (exactly as recorded,
    unit kwargs included), its request (experiment ids, scale, seeds,
    cache dir, jobs), and the set of unit keys that already completed
    ``ok`` — those replay from the result cache; everything else is
    re-executed.  Raises :class:`ConfigurationError` for an unreadable
    file and for manifests that predate schema v3 (no recorded units to
    re-create).
    """
    try:
        records = read_manifest(path)
    except OSError as exc:
        raise ConfigurationError(f"cannot read manifest {path}: {exc}") from None
    runs = [r for r in records if r.get("record") == "run"]
    if not runs:
        raise ConfigurationError(f"{path}: no run record; not a manifest?")
    run = runs[0]
    if not run.get("work_units"):
        raise ConfigurationError(
            f"{path}: manifest predates schema v3 (no work_units); "
            f"re-run without --resume"
        )
    units = [
        WorkUnit(
            experiment_id=unit["experiment_id"],
            scale=unit["scale"],
            seed=unit["seed"],
            kernel=unit["kernel"],
            kwargs=freeze_kwargs(unit["kwargs"]),
        )
        for unit in run["work_units"]
    ]
    completed = {
        r["key"] for r in records
        if r.get("record") == "unit" and r.get("outcome") == "ok"
    }
    return {
        "units": units,
        "experiment_ids": list(run["experiment_ids"]),
        "scale": run["scale"],
        "seeds": tuple(run["seeds"]),
        "kernel": run.get("kernel"),
        "jobs": run.get("jobs"),
        "cache_dir": run.get("cache_dir"),
        "fingerprint": run.get("fingerprint"),
        "version": run.get("version"),
        "completed": completed,
    }
