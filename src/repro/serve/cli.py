"""``repro serve`` — the simulation-as-a-service front end.

Boots a :class:`~repro.serve.jobs.JobManager` (bounded queue, runner
threads, shared result cache) behind the asyncio HTTP server of
:mod:`repro.serve.http`.  SIGINT/SIGTERM shut down gracefully: in-flight
jobs are cancelled cooperatively, their manifests stay resumable, and
the process exits 130.
"""

from __future__ import annotations

import asyncio
import sys

from repro.engine import (
    ChaosPlan,
    ExecutionPolicy,
    ResultCache,
    TraceStore,
    default_cache_dir,
    jobs_arg,
)
from repro.errors import ConfigurationError


def add_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="run the async HTTP job service",
        description="Expose the engine over HTTP: POST /jobs submits "
        "experiment runs or fleet populations, GET /jobs/<id>/events "
        "streams manifest progress as NDJSON, GET /metrics serves "
        "Prometheus text.  The queue is bounded; past --queue-limit the "
        "server answers 429 with Retry-After.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8577)
    parser.add_argument("--jobs", type=jobs_arg, default=None, metavar="N",
                        help="worker processes per job: a count or 'auto' "
                        "= CPUs-1 (default auto)")
    parser.add_argument("--queue-limit", type=int, default=8, metavar="N",
                        help="jobs that may wait in the queue before "
                        "submissions get 429 (default 8)")
    parser.add_argument("--runners", type=int, default=1, metavar="N",
                        help="jobs executed concurrently (default 1; each "
                        "uses up to --jobs workers)")
    parser.add_argument("--spool-dir", default=None, metavar="DIR",
                        help="job manifests root (default: "
                        "<cache-dir>/serve)")
    parser.add_argument("--cache-dir", default=None,
                        help="result-cache root (default: $REPRO_CACHE_DIR "
                        "or ~/.cache/repro)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every unit; skip the result cache")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-unit wall-clock timeout (default: none)")
    parser.add_argument("--retries", type=int, default=1, metavar="N",
                        help="transient failures tolerated per unit "
                        "(default 1)")
    parser.add_argument("--max-rebuilds", type=int, default=2, metavar="K",
                        help="consecutive pool breakages tolerated before "
                        "degrading to serial (default 2)")
    parser.add_argument("--chaos", default=None, metavar="PLAN",
                        help="activate the chaos harness from a plan JSON "
                        "for every job (testing)")


def cmd_serve(args) -> int:
    from repro.serve.http import run_server
    from repro.serve.jobs import JobManager

    policy = ExecutionPolicy(
        timeout_s=args.timeout,
        retries=args.retries,
        max_rebuilds=args.max_rebuilds,
    )

    chaos = None
    if args.chaos:
        try:
            chaos = ChaosPlan.load(args.chaos)
        except (OSError, ValueError, KeyError, ConfigurationError) as exc:
            print(f"error: bad chaos plan {args.chaos}: {exc}", file=sys.stderr)
            return 2

    cache_root = args.cache_dir or default_cache_dir()
    spool_dir = args.spool_dir or f"{cache_root}/serve"
    manager = JobManager(
        spool_dir=spool_dir,
        cache=None if args.no_cache else ResultCache(cache_root),
        trace_store=None if args.no_cache else TraceStore(cache_root),
        jobs=args.jobs,
        queue_limit=args.queue_limit,
        runners=args.runners,
        policy=policy,
        chaos=chaos,
    )

    print(f"repro serve on http://{args.host}:{args.port} "
          f"(jobs={manager.jobs}, queue_limit={args.queue_limit}, "
          f"spool={spool_dir})", file=sys.stderr, flush=True)
    try:
        return asyncio.run(run_server(manager, args.host, args.port))
    except OSError as exc:  # port in use, bad host, ...
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
