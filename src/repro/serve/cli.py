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

from repro.engine import add_engine_args, resolve_engine_args


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
    parser.add_argument("--queue-limit", type=int, default=8, metavar="N",
                        help="jobs that may wait in the queue before "
                        "submissions get 429 (default 8)")
    parser.add_argument("--runners", type=int, default=1, metavar="N",
                        help="jobs executed concurrently (default 1; each "
                        "uses up to --jobs workers)")
    parser.add_argument("--spool-dir", default=None, metavar="DIR",
                        help="job manifests root (default: "
                        "<cache-dir>/serve)")
    add_engine_args(parser, runs=False)


def cmd_serve(args) -> int:
    from repro.serve.http import run_server
    from repro.serve.jobs import JobManager

    engine = resolve_engine_args(args, "serve")
    spool_dir = args.spool_dir or f"{engine.cache_root}/serve"
    manager = JobManager(
        spool_dir=spool_dir,
        cache=engine.cache,
        trace_store=engine.trace_store,
        jobs=args.jobs,
        queue_limit=args.queue_limit,
        runners=args.runners,
        policy=engine.policy,
        chaos=engine.chaos,
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
