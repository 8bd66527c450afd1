"""``repro fleet`` — run a device population through the engine.

Prints the population distribution table (or, with ``--json``, the
canonical summary JSON — the byte-identity surface the service-vs-CLI
equivalence check compares) and honours the full engine surface (the
option group of :mod:`repro.engine.jobs`): result cache, manifests,
resilience policy, chaos plans, and Ctrl-C cooperative cancellation.
An interrupted fleet prints a ``repro run --resume <manifest>`` hint;
the manifest lists the fleet's shard units, so the resume re-creates
exactly those shards.
"""

from __future__ import annotations

import os
import sys
import time

from repro.engine import (
    INTERRUPT_EXIT_CODE,
    RunManifest,
    add_engine_args,
    cancel_on_signals,
    resolve_engine_args,
    summarize,
)
from repro.fleet.aggregate import canonical_json, summary_table
from repro.fleet.population import FleetSpec
from repro.fleet.runner import run_fleet


def add_parser(subparsers) -> None:
    from repro.experiments.runner import parse_scale

    parser = subparsers.add_parser(
        "fleet",
        help="simulate a fleet-scale population of heterogeneous devices",
        description="Sample N mobile computers from a fixed product mix "
        "(workload, storage device, cache sizes, spin-down policy — all "
        "derived from per-device hash seeds), simulate each one, and "
        "aggregate energy/latency/wear into exact population "
        "distributions.  The summary is byte-identical for any --jobs / "
        "--shards choice.",
    )
    parser.add_argument("--devices", type=int, default=100, metavar="N",
                        help="fleet size (default 100)")
    parser.add_argument("--seed", type=int, default=0,
                        help="fleet seed; every device derives its own "
                        "seed from it (default 0)")
    parser.add_argument("--scale", type=parse_scale, default=0.2,
                        help="per-device trace-length scale in (0, 1]")
    parser.add_argument("--ops", type=int, default=400, metavar="N",
                        help="nominal full-scale ops per device, jittered "
                        "±50%% per device (default 400)")
    parser.add_argument("--shards", type=int, default=None, metavar="K",
                        help="work units to cut the fleet into "
                        "(default: 2 per worker; 1 when --jobs 1)")
    parser.add_argument("--json", action="store_true",
                        help="print the canonical population summary JSON "
                        "instead of the table")
    parser.add_argument("-o", "--out", default=None, metavar="PATH",
                        help="also write the canonical summary JSON here")
    parser.add_argument("--fast", action="store_true",
                        help="vectorized fleet fast path: exact device "
                        "parameters, synthesized traces, batched device "
                        "math, columnar shard transport; population "
                        "summaries agree with the reference path within "
                        "the repro.contract fleet tolerances (default off; "
                        "not combinable with --kernel)")
    add_engine_args(parser)


def cmd_fleet(args) -> int:
    spec = FleetSpec(
        devices=args.devices,
        seed=args.seed,
        scale=args.scale,
        ops_per_device=args.ops,
    )
    engine = resolve_engine_args(args, "fleet")

    progress_started = time.perf_counter()
    progress_devices = 0

    def on_progress(done, total, outcome) -> None:
        nonlocal progress_devices
        if args.quiet:
            return
        status = outcome.cache if outcome.ok else "ERROR"
        rate = ""
        if outcome.ok:
            from repro.fleet.experiment import shard_indices

            kwargs = dict(outcome.unit.kwargs)
            progress_devices += len(shard_indices(
                spec.devices, kwargs["shard"], kwargs["shards"]
            ))
            elapsed = time.perf_counter() - progress_started
            if elapsed > 0:
                rate = f"  {progress_devices / elapsed:8.0f} dev/s"
        print(f"[{done:3d}/{total}] {outcome.unit.label:52s} "
              f"{outcome.wall_s:7.2f}s  {status}{rate}", file=sys.stderr)

    started = time.perf_counter()
    with cancel_on_signals() as cancel:
        with RunManifest(engine.manifest_path) as manifest:
            run = run_fleet(
                spec,
                jobs=args.jobs,
                shards=args.shards,
                cache=engine.cache,
                trace_store=engine.trace_store,
                manifest=manifest,
                policy=engine.policy,
                chaos=engine.chaos,
                cancel=cancel,
                progress=on_progress,
                kernel=args.kernel,
                fast=args.fast,
            )
    wall = time.perf_counter() - started

    counts = summarize(run.outcomes)
    if not args.quiet:
        print(f"fleet: {spec.devices} device(s) in {run.shards} shard(s) "
              f"over {run.jobs} job(s): {counts['ok']} ok, "
              f"{counts['errors']} failed ({counts['hits']} cache hit(s)) "
              f"in {wall:.2f}s ({spec.devices / wall:.0f} devices/sec)",
              file=sys.stderr)
        print(f"manifest: {engine.manifest_path}", file=sys.stderr)

    if run.cancelled:
        print(f"interrupted: {counts['cancelled']} shard(s) not run; "
              f"resume with: repro run --resume {engine.manifest_path}",
              file=sys.stderr)
        return INTERRUPT_EXIT_CODE
    if not run.ok:
        for outcome in run.outcomes:
            if not outcome.ok:
                print(f"\nFAILED {outcome.unit.label}:\n{outcome.error}",
                      file=sys.stderr)
        return 1

    document = canonical_json(run.summary)
    if args.json:
        sys.stdout.write(document)
    else:
        print(summary_table(
            run.summary,
            title=f"Fleet population ({spec.devices} devices, "
                  f"seed {spec.seed})",
        ).render())
    if args.out:
        out_dir = os.path.dirname(os.path.abspath(args.out))
        os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w") as stream:
            stream.write(document)
        if not args.quiet:
            print(f"wrote {args.out}", file=sys.stderr)
    return 0
