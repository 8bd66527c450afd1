"""Options and worker-count resolution shared by every engine front end.

``repro run``, ``repro fleet`` and ``repro serve`` declare their engine
options through one group (:func:`add_engine_args`) and turn the parsed
flags into engine objects through one resolver
(:func:`resolve_engine_args`), so a flag means the same thing, with the
same default, on every front.  ``--jobs auto`` (the default) is one
worker per CPU, minus one core left for the parent process (the
scheduler, the HTTP server, the aggregator) — the same rule inside the
service as on the command line.
"""

from __future__ import annotations

import argparse
import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro.engine.chaos import ChaosPlan
from repro.engine.resilience import ExecutionPolicy
from repro.engine.result_cache import ResultCache, default_cache_dir
from repro.engine.trace_store import TraceStore
from repro.errors import ConfigurationError

#: The sentinel accepted (case-insensitively) wherever a job count goes.
AUTO = "auto"


def auto_jobs() -> int:
    """The ``--jobs auto`` worker count: ``cpu_count - 1``, at least 1.

    One core is reserved for the submitting process — the scheduler's
    window management, the serve front's event loop, or the fleet
    aggregator — so workers do not contend with their own coordinator.
    """
    return max(1, (os.cpu_count() or 2) - 1)


def resolve_jobs(value: int | str | None) -> int:
    """Normalise a jobs request (``None``/``"auto"``/int) to a count.

    Anything else — a bool, a float such as ``2.5`` from a JSON body —
    is a :class:`ConfigurationError`, never a count."""
    if value is None:
        return auto_jobs()
    count: object = value
    if isinstance(value, str):
        if value.strip().lower() == AUTO:
            return auto_jobs()
        try:
            count = int(value)
        except ValueError:
            pass
    if isinstance(count, bool) or not isinstance(count, int):
        raise ConfigurationError(
            f"jobs must be a positive integer or 'auto', got {value!r}"
        )
    if count < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {count}")
    return count


def jobs_arg(text: str) -> int:
    """Argparse type for ``--jobs``: a positive integer or ``auto``."""
    try:
        return resolve_jobs(text)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def add_kernel_arg(parser: argparse.ArgumentParser) -> None:
    """Declare ``--kernel`` (choices from :data:`repro.kernel.KERNELS`)."""
    from repro.kernel import KERNELS

    parser.add_argument(
        "--kernel", choices=KERNELS, default=None,
        help="simulation kernel (default batched; vector is the "
        "NumPy fast path, equal within the documented float tolerance, "
        "falling back to batched outside its envelope)",
    )


def add_engine_args(parser: argparse.ArgumentParser, *, runs: bool = True) -> None:
    """Declare the engine options every front door shares.

    ``runs`` adds the options of a foreground run (``repro run``,
    ``repro fleet``): ``--manifest``, ``--quiet`` and ``--kernel``.
    """
    parser.add_argument("--jobs", type=jobs_arg, default=None, metavar="N",
                        help="worker processes: a count or 'auto' = CPUs-1 "
                        "(default auto; 1 = in-process serial)")
    parser.add_argument("--cache-dir", default=None,
                        help="result-cache root (default: $REPRO_CACHE_DIR "
                        "or ~/.cache/repro)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every unit; skip the result cache "
                        "and trace store")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-unit wall-clock timeout; an overdue "
                        "worker is killed and the unit retried "
                        "(default: none)")
    parser.add_argument("--retries", type=int, default=1, metavar="N",
                        help="transient failures (errors, timeouts) "
                        "tolerated per unit before the failure is terminal "
                        "(default 1; 0 restores fail-on-first)")
    parser.add_argument("--max-rebuilds", type=int, default=2, metavar="K",
                        help="consecutive worker-pool breakages tolerated "
                        "before degrading to in-process serial execution "
                        "(default 2)")
    parser.add_argument("--chaos", default=None, metavar="PLAN",
                        help="activate the chaos harness from a plan JSON "
                        "(testing: kills/hangs/crashes workers and corrupts "
                        "cache entries per the plan)")
    if runs:
        parser.add_argument("--manifest", default=None,
                            help="run-manifest JSONL path (default: "
                            "<cache-dir>/manifests/<command>-<timestamp>.jsonl)")
        parser.add_argument("--quiet", action="store_true",
                            help="suppress per-unit progress lines")
        add_kernel_arg(parser)


@dataclass(frozen=True)
class EngineOptions:
    """What :func:`add_engine_args` flags resolve to."""

    policy: ExecutionPolicy
    chaos: ChaosPlan | None
    cache_root: Path
    #: both None under ``--no-cache``
    cache: ResultCache | None
    trace_store: TraceStore | None
    #: ``--manifest``, or ``<root>/manifests/<command>-<stamp>-<pid>.jsonl``
    manifest_path: str


def resolve_engine_args(
    args: argparse.Namespace, command: str, cache_dir: str | None = None
) -> EngineOptions:
    """Turn parsed engine flags into engine objects.

    ``cache_dir`` is the root to use when ``--cache-dir`` is not given
    (a resumed run's recorded root); the environment default applies
    after both.  A chaos plan that will not load is a
    :class:`ConfigurationError`.
    """
    chaos = None
    if args.chaos:
        try:
            chaos = ChaosPlan.load(args.chaos)
        except (OSError, ValueError, KeyError, TypeError,
                ConfigurationError) as exc:
            raise ConfigurationError(
                f"bad chaos plan {args.chaos}: {exc}"
            ) from None
    root = Path(args.cache_dir or cache_dir or default_cache_dir())
    manifest_path = getattr(args, "manifest", None) or (
        f"{root}/manifests/{command}-{time.strftime('%Y%m%d-%H%M%S')}"
        f"-{os.getpid()}.jsonl"
    )
    return EngineOptions(
        policy=ExecutionPolicy(
            timeout_s=args.timeout,
            retries=args.retries,
            max_rebuilds=args.max_rebuilds,
        ),
        chaos=chaos,
        cache_root=root,
        cache=None if args.no_cache else ResultCache(root),
        trace_store=None if args.no_cache else TraceStore(root),
        manifest_path=manifest_path,
    )
