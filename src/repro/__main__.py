"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``simulate``  — run a workload against a device and print the Table 4-style row
* ``generate``  — write a synthetic trace to a file
* ``analyze``   — characterise a trace file (Table 3 stats + locality toolkit)
* ``import``    — normalise a foreign trace (csv / blktrace / snia, .gz ok)
* ``fit``       — learn a workload model from a trace; emit model.json
* ``experiment``— run one registered experiment driver and print its report
* ``run``       — parallel, cache-aware experiment runs via the engine;
  ``--observe DIR`` traces and checks every simulation they run
* ``fleet``     — simulate a fleet-scale population of heterogeneous devices
* ``serve``     — async HTTP job service (submit runs/fleets, stream events)
* ``cache``     — manage the on-disk result cache (stats, clear)
* ``faults``    — simulate under an injected-fault plan and report reliability
* ``devices``   — list registered device parameter sets
* ``experiments`` — list registered experiments
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.engine.jobs import add_engine_args, add_kernel_arg
from repro.units import KB, MB


def _add_simulate(subparsers) -> None:
    parser = subparsers.add_parser("simulate", help="simulate a workload on a device")
    parser.add_argument("--workload", default="mac",
                        help="mac | dos | hp | synth | fitted:<model.json> | "
                        "path to a trace file")
    parser.add_argument("--device", default="cu140-datasheet")
    parser.add_argument("--ops", type=int, default=20_000,
                        help="operations to generate (ignored for trace files)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--dram-kb", type=int, default=2048)
    parser.add_argument("--sram-kb", type=int, default=32)
    parser.add_argument("--utilization", type=float, default=0.8)
    parser.add_argument("--spin-down-s", type=float, default=5.0)
    parser.add_argument("--no-spin-down", action="store_true")
    parser.add_argument("--cleaning-policy", default="greedy")
    parser.add_argument("--write-back", action="store_true")
    add_kernel_arg(parser)


def _add_generate(subparsers) -> None:
    parser = subparsers.add_parser("generate", help="write a synthetic trace")
    parser.add_argument("--workload", default="mac",
                        help="mac | dos | hp | synth | fitted:<model.json>")
    parser.add_argument("--ops", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("-o", "--output", required=True)


def _add_analyze(subparsers) -> None:
    parser = subparsers.add_parser("analyze", help="characterise a trace file")
    parser.add_argument("trace", help="path to a trace file (save_trace format)")
    parser.add_argument("--cache-kb", type=int, default=2048,
                        help="LRU size for the predicted hit rate")


def _add_import(subparsers) -> None:
    parser = subparsers.add_parser(
        "import",
        help="normalise a foreign trace into the repro trace format",
        description="Import a csv / blktrace / snia trace (transparently "
        "gunzipped), synthesising file ids for disk-level sources, and "
        "write it in the save_trace text format.  With --expect the "
        "import is gated on conformance to reference statistics.",
    )
    parser.add_argument("source", help="foreign trace file (.gz ok)")
    parser.add_argument("-o", "--output", required=True,
                        help="normalised trace output path")
    parser.add_argument("--format", default="auto",
                        choices=("auto", "csv", "blktrace", "snia"),
                        help="source format (default: sniffed)")
    parser.add_argument("--columns", default=None, metavar="MAP",
                        help="csv column map, e.g. "
                        "'time=Timestamp,op=Type,size=Size,offset=3' "
                        "(names need a header row; integers are 0-based "
                        "indices). Required for csv sources.")
    parser.add_argument("--time-unit", default=None,
                        choices=("s", "ms", "us", "ns", "100ns"),
                        help="source timestamp unit (default: s for csv, "
                        "100ns for snia)")
    parser.add_argument("--delimiter", default=",",
                        help="csv field delimiter (default ,)")
    parser.add_argument("--no-header", action="store_true",
                        help="csv source has no header row")
    parser.add_argument("--block-size", type=int, default=KB, metavar="BYTES",
                        help="trace block size in bytes (default 1024)")
    parser.add_argument("--action", default="Q",
                        help="blktrace action to keep (default Q)")
    parser.add_argument("--name", default=None,
                        help="trace name (default: derived from the file)")
    parser.add_argument("--expect", default=None, metavar="STATS.json",
                        help="reference TraceStatistics JSON the import "
                        "must conform to")
    parser.add_argument("--stats-out", default=None, metavar="PATH",
                        help="also write the imported trace's statistics "
                        "as JSON (usable later as --expect)")


def _add_fit(subparsers) -> None:
    parser = subparsers.add_parser(
        "fit",
        help="fit a workload model to a trace; emit model.json",
        description="Learn generator parameters (rates, size and "
        "inter-arrival distributions, popularity skew, coverage) from a "
        "trace and write a fitted-workload model.  The model generates "
        "arbitrarily long extensions: use it anywhere a workload name "
        "is accepted as 'fitted:<model.json>'.  By default the fit is "
        "verified by regenerating at 2x length and checking the "
        "extension against the source's Table 3 row.",
    )
    parser.add_argument("trace",
                        help="mac | dos | hp | synth | path to a trace file")
    parser.add_argument("-o", "--output", required=True,
                        help="model JSON output path")
    parser.add_argument("--ops", type=int, default=20_000,
                        help="operations to generate for bundled workload "
                        "names (ignored for trace files)")
    parser.add_argument("--seed", type=int, default=1,
                        help="generation seed for bundled workload names")
    parser.add_argument("--name", default=None,
                        help="fitted workload name (default: "
                        "fitted-<trace name>)")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the 2x-extension conformance check")
    parser.add_argument("--length", type=float, default=2.0,
                        help="verification extension length, as a multiple "
                        "of the source's record count (default 2.0)")
    parser.add_argument("--report-out", default=None, metavar="PATH",
                        help="write the conformance report as JSON")


def _add_experiment(subparsers) -> None:
    from repro.experiments.runner import parse_scale

    parser = subparsers.add_parser("experiment", help="run an experiment driver")
    parser.add_argument("experiment_id")
    parser.add_argument("--scale", type=parse_scale, default=0.2,
                        help="trace-length scale in (0, 1] (default 0.2)")
    parser.add_argument("--seed", type=int, default=None,
                        help="trace-generation seed (default: module default)")
    parser.add_argument("--workload", default=None,
                        help="override the driver's trace set: a bundled "
                        "workload name (mac | dos | hp | synth) or "
                        "fitted:<model.json>")
    add_kernel_arg(parser)


def _add_run(subparsers) -> None:
    from repro.experiments.runner import parse_scale

    parser = subparsers.add_parser(
        "run",
        help="run experiments through the parallel, cache-aware engine",
        description="Decompose a run request into independent work units "
        "(experiment x seed), resolve what it can from the on-disk result "
        "cache, and fan the rest out over worker processes.  A second "
        "invocation of the same run is pure cache replay.",
    )
    parser.add_argument("experiments", nargs="*", metavar="experiment",
                        help="experiment ids (default: --all)")
    parser.add_argument("--all", action="store_true", help="run everything")
    parser.add_argument("--scale", type=parse_scale, default=0.2,
                        help="trace-length scale in (0, 1]")
    parser.add_argument("--seed", type=int, action="append", default=None,
                        metavar="SEED",
                        help="trace-generation seed; repeat for a seed sweep "
                        "(default: module default)")
    parser.add_argument("--output", help="append each finished report to "
                        "this file (deterministic registry order)")
    parser.add_argument("--observe", default=None, metavar="DIR",
                        help="run each unit under the event tracer and write "
                        "its Chrome trace, metrics JSON and per-layer "
                        "attribution tables into DIR; a unit fails if any "
                        "simulation's layers disagree with its report "
                        "(bypasses the result cache)")
    parser.add_argument("--resume", default=None, metavar="MANIFEST",
                        help="continue an interrupted run: replay the "
                        "manifest's completed units from the result cache "
                        "and re-execute only the remainder (the work units "
                        "are read back from the manifest)")
    add_engine_args(parser)


def _add_fleet(subparsers) -> None:
    from repro.fleet.cli import add_parser

    add_parser(subparsers)


def _add_serve(subparsers) -> None:
    from repro.serve.cli import add_parser

    add_parser(subparsers)


def _add_cache(subparsers) -> None:
    parser = subparsers.add_parser(
        "cache", help="manage the on-disk result cache"
    )
    parser.add_argument("action", choices=("stats", "clear"))
    parser.add_argument("--cache-dir", default=None,
                        help="result-cache root (default: $REPRO_CACHE_DIR "
                        "or ~/.cache/repro)")


def _add_faults(subparsers) -> None:
    parser = subparsers.add_parser(
        "faults", help="simulate under injected faults and report reliability"
    )
    parser.add_argument("--workload", default="synth",
                        help="mac | dos | hp | synth | path to a trace file")
    parser.add_argument("--device", default="intel-datasheet")
    parser.add_argument("--ops", type=int, default=10_000,
                        help="operations to generate (ignored for trace files)")
    parser.add_argument("--seed", type=int, default=1,
                        help="trace seed; also seeds the fault schedule")
    parser.add_argument("--dram-kb", type=int, default=2048)
    parser.add_argument("--sram-kb", type=int, default=32)
    parser.add_argument("--read-error-rate", type=float, default=0.01,
                        help="transient read-failure probability per operation")
    parser.add_argument("--write-error-rate", type=float, default=0.01,
                        help="transient write-failure probability per operation")
    parser.add_argument("--bad-block-rate", type=float, default=0.002,
                        help="base erase-failure probability (scales with wear)")
    parser.add_argument("--power-loss-at", type=float, action="append",
                        default=None, metavar="SECONDS",
                        help="schedule a power loss (repeatable); default: "
                        "one at 50%% of the trace")
    parser.add_argument("--spares", type=int, default=2,
                        help="spare segments for bad-block remapping")
    parser.add_argument("--max-retries", type=int, default=3,
                        help="bounded retries per transient failure")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_simulate(subparsers)
    _add_generate(subparsers)
    _add_analyze(subparsers)
    _add_import(subparsers)
    _add_fit(subparsers)
    _add_experiment(subparsers)
    _add_run(subparsers)
    _add_fleet(subparsers)
    _add_serve(subparsers)
    _add_cache(subparsers)
    _add_faults(subparsers)
    subparsers.add_parser("devices", help="list device parameter sets")
    subparsers.add_parser("experiments", help="list experiment drivers")
    return parser


def _load_workload(name: str, ops: int, seed: int):
    from repro.traces.io import load_trace
    from repro.traces.synthetic import SyntheticWorkload
    from repro.traces.workloads import workload_by_name

    if name.startswith("fitted:"):
        from repro.traces.fitting import FittedWorkload

        model = FittedWorkload.load(name.removeprefix("fitted:"))
        return model.generate(seed=seed, n_ops=ops)
    if name == "synth":
        return SyntheticWorkload().generate(n_ops=ops, seed=seed)
    if name in ("mac", "dos", "hp"):
        return workload_by_name(name).generate(seed=seed, n_ops=ops)
    return load_trace(name)


def cmd_simulate(args) -> int:
    from repro.core.config import SimulationConfig
    from repro.core.simulator import simulate

    trace = _load_workload(args.workload, args.ops, args.seed)
    config = SimulationConfig(
        device=args.device,
        dram_bytes=args.dram_kb * KB,
        sram_bytes=args.sram_kb * KB,
        flash_utilization=args.utilization,
        spin_down_timeout_s=None if args.no_spin_down else args.spin_down_s,
        cleaning_policy=args.cleaning_policy,
        write_back=args.write_back,
    )
    result = simulate(trace, config, kernel=args.kernel)
    print(f"trace       {result.trace_name} ({len(trace)} ops, "
          f"{trace.duration:.0f} s)")
    print(f"device      {result.device_name}")
    if result.extra.get("kernel"):
        note = ""
        if result.extra.get("kernel_fallback_reason"):
            note = (f" (requested {result.extra['kernel_requested']}; "
                    f"fell back: {result.extra['kernel_fallback_reason']})")
        print(f"kernel      {result.extra['kernel']}{note}")
    print(f"energy      {result.energy_j:.1f} J "
          f"({result.energy_j / max(result.duration_s, 1e-9):.3f} W average)")
    print(f"reads       {result.n_reads}: mean {result.read_response.mean_ms:.3f} ms, "
          f"p95 {result.read_response.p95_ms:.2f} ms, "
          f"max {result.read_response.max_ms:.1f} ms")
    print(f"writes      {result.n_writes}: mean {result.write_response.mean_ms:.3f} ms, "
          f"p95 {result.write_response.p95_ms:.2f} ms, "
          f"max {result.write_response.max_ms:.1f} ms")
    if result.dram_hit_rate is not None:
        print(f"dram hits   {result.dram_hit_rate:.1%}")
    if result.wear is not None:
        print(f"wear        max {result.wear.max_erasures} erases/segment, "
              f"mean {result.wear.mean_erasures:.2f}")
    return 0


def cmd_generate(args) -> int:
    from repro.traces.io import save_trace

    trace = _load_workload(args.workload, args.ops, args.seed)
    save_trace(trace, args.output)
    print(f"wrote {len(trace)} records to {args.output}")
    return 0


def cmd_analyze(args) -> int:
    from repro.traces.analysis import (
        burstiness,
        lru_hit_rate,
        sequentiality,
        write_concentration,
    )
    from repro.traces.io import load_trace
    from repro.traces.stats import compute_statistics

    trace = load_trace(args.trace)
    hit_rate = lru_hit_rate(trace, args.cache_kb * KB // trace.block_size)
    stats = compute_statistics(trace)
    print(f"trace          {trace.name}: {len(trace)} records, "
          f"{stats.duration_s:.0f} s")
    print(f"distinct data  {stats.distinct_kbytes:.0f} KB "
          f"(block size {stats.block_size_kbytes:g} KB)")
    print(f"reads          {stats.fraction_reads:.1%} of ops, "
          f"mean {stats.mean_read_blocks:.2f} blocks")
    print(f"writes         mean {stats.mean_write_blocks:.2f} blocks")
    print(f"inter-arrival  mean {stats.interarrival_mean_s:.3f} s, "
          f"max {stats.interarrival_max_s:.1f} s, "
          f"sigma {stats.interarrival_std_s:.2f} s")
    gaps = burstiness(trace)
    print(f"burstiness     {gaps.long_gap_fraction:.2%} of gaps > 5 s, "
          f"covering {gaps.long_gap_time_fraction:.1%} of wall time")
    print(f"sequentiality  {sequentiality(trace):.1%} of ops continue the "
          f"previous one")
    writes = write_concentration(trace)
    if writes.write_block_events:
        print(f"write reuse    each written block rewritten "
              f"{writes.rewrite_factor:.1f}x on average; 90% of write "
              f"traffic on {writes.hot_fraction_for_90pct:.1%} of written blocks")
    print(f"LRU hit rate   {hit_rate:.1%} at {args.cache_kb} KB")
    return 0


def cmd_import(args) -> int:
    import json

    from repro.traces.ingest import CsvSpec, import_trace, parse_column_map
    from repro.traces.io import save_trace
    from repro.traces.stats import compute_statistics

    options: dict = {}
    if args.format in ("auto", "csv") and args.columns:
        options["spec"] = CsvSpec(
            columns=parse_column_map(args.columns),
            time_unit=args.time_unit or "s",
            delimiter=args.delimiter,
            header=not args.no_header,
            block_size=args.block_size,
            name=args.name,
        )
        if args.format == "auto":
            args.format = "csv"
    elif args.format == "csv":
        print("error: csv imports need --columns (e.g. "
              "'time=Timestamp,op=Type,size=Size')", file=sys.stderr)
        return 2
    elif args.format == "blktrace":
        options = {"action": args.action, "block_size": args.block_size,
                   "name": args.name}
    elif args.format == "snia":
        options = {"time_unit": args.time_unit or "100ns",
                   "block_size": args.block_size, "name": args.name}

    expect = None
    if args.expect:
        with open(args.expect) as handle:
            expect = json.load(handle)
    trace, report = import_trace(
        args.source, format=args.format, expect=expect, **options
    )
    save_trace(trace, args.output)
    stats = compute_statistics(trace)
    print(report.summary())
    print(f"wrote {len(trace)} records to {args.output}")
    for key, value in stats.row().items():
        print(f"  {key:18s} {value}")
    if trace.metadata.get("conformance"):
        print("conformance to --expect: OK")
    if args.stats_out:
        with open(args.stats_out, "w") as handle:
            json.dump(stats.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote statistics to {args.stats_out}")
    return 0


def cmd_fit(args) -> int:
    import json

    from repro.traces.fitting import fit_trace

    trace = _load_workload(args.trace, args.ops, args.seed)
    model = fit_trace(trace, name=args.name, source=args.trace)
    if not args.no_verify:
        model.extension_ops(args.length)  # a bad --length writes no model
    model.save(args.output)
    print(f"fitted {model.spec.name!r} from {args.trace} "
          f"({model.reference.n_records} records)")
    print(f"wrote model to {args.output} "
          f"(digest {model.content_digest()[:16]})")
    if args.no_verify:
        return 0
    report = model.verify(seed=args.seed, length=args.length)
    if args.report_out:
        with open(args.report_out, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote conformance report to {args.report_out}")
    print(report.render())
    return 0 if report.ok else 1


def _workload_override_kwargs(experiment_id: str, workload: str | None) -> dict:
    """Map --workload onto the driver's trace-selection parameter
    (``traces=`` tuple, ``trace_name=``, or ``workload=``)."""
    if workload is None:
        return {}
    import inspect

    from repro.errors import ConfigurationError
    from repro.experiments.registry import get_experiment

    parameters = inspect.signature(get_experiment(experiment_id).run).parameters
    if "traces" in parameters:
        return {"traces": (workload,)}
    for name in ("trace_name", "workload"):
        if name in parameters:
            return {name: workload}
    raise ConfigurationError(
        f"experiment {experiment_id!r} runs on a fixed trace set and "
        f"takes no --workload override"
    )


def cmd_experiment(args) -> int:
    from repro.experiments.runner import run_experiment

    kwargs = _workload_override_kwargs(args.experiment_id, args.workload)
    print(run_experiment(args.experiment_id, scale=args.scale, seed=args.seed,
                         kernel=args.kernel, **kwargs).render())
    return 0


def cmd_run(args) -> int:
    import time

    from repro.engine import (
        INTERRUPT_EXIT_CODE,
        RunManifest,
        cancel_on_signals,
        decompose,
        execute,
        resolve_engine_args,
        resume_spec,
        summarize,
    )
    from repro.errors import ConfigurationError
    from repro.experiments.registry import all_experiments, get_experiment

    cache_dir = None
    if args.resume:
        if args.no_cache:
            raise ConfigurationError(
                "--resume replays completed units from the result cache; "
                "it cannot be combined with --no-cache"
            )
        spec = resume_spec(args.resume)
        units, cache_dir = spec["units"], spec["cache_dir"]
    else:
        if args.all or not args.experiments:
            experiment_ids = sorted(all_experiments())
        else:
            for experiment_id in args.experiments:
                get_experiment(experiment_id)
            experiment_ids = args.experiments
        units = decompose(
            experiment_ids, scale=args.scale,
            seeds=tuple(args.seed) if args.seed else (None,),
            kernel=args.kernel,
        )
    engine = resolve_engine_args(args, "run", cache_dir=cache_dir)

    output = None
    if args.output:
        os.makedirs(os.path.dirname(os.path.abspath(args.output)), exist_ok=True)
        output = open(args.output, "w")
    index_of = {unit: index for index, unit in enumerate(units)}
    buffered = {}
    cursor = 0
    total = len(units)

    def on_progress(done, _total, outcome) -> None:
        nonlocal cursor
        if not args.quiet:
            status = outcome.cache if outcome.ok else "ERROR"
            print(f"[{done:3d}/{total}] {outcome.unit.label:40s} "
                  f"{outcome.wall_s:7.2f}s  {status:5s} worker {outcome.worker}")
        if output is not None:
            # Flush finished reports in unit order so the stream is
            # deterministic under --jobs N and a crash keeps the prefix.
            buffered[index_of[outcome.unit]] = outcome
            while cursor in buffered:
                ready = buffered.pop(cursor)
                cursor += 1
                if ready.result is not None:
                    output.write(ready.result.render() + "\n\n")
                    output.flush()

    started = time.perf_counter()
    try:
        with cancel_on_signals() as cancel:
            with RunManifest(engine.manifest_path) as manifest:
                outcomes = execute(
                    units,
                    jobs=args.jobs,
                    cache=engine.cache,
                    trace_store=engine.trace_store,
                    manifest=manifest,
                    progress=on_progress,
                    observe_dir=args.observe,
                    policy=engine.policy,
                    chaos=engine.chaos,
                    resumed_from=args.resume,
                    cancel=cancel,
                )
    finally:
        if output is not None:
            output.close()
    wall = time.perf_counter() - started

    counts = summarize(outcomes)
    recovery = ""
    if counts["retries"] or counts["requeued"]:
        recovery = (f", {counts['retries']} retried, "
                    f"{counts['requeued']} requeued")
    print(f"{counts['units']} unit(s): {counts['ok']} ok, "
          f"{counts['errors']} failed ({counts['hits']} cache hit(s), "
          f"{counts['misses']} miss(es){recovery}) in {wall:.2f}s")
    if args.resume:
        print(f"resumed from: {args.resume}")
    print(f"manifest: {engine.manifest_path}")
    if counts["cancelled"]:
        print(f"interrupted: {counts['cancelled']} unit(s) not run; "
              f"resume with: repro run --resume {engine.manifest_path}",
              file=sys.stderr)
        return INTERRUPT_EXIT_CODE
    for outcome in outcomes:
        if not outcome.ok:
            print(f"\nFAILED {outcome.unit.label}:\n{outcome.error}",
                  file=sys.stderr)
    return 0 if counts["errors"] == 0 else 1


def cmd_fleet(args) -> int:
    from repro.fleet.cli import cmd_fleet as run_fleet_cmd

    return run_fleet_cmd(args)


def cmd_serve(args) -> int:
    from repro.serve.cli import cmd_serve as run_serve_cmd

    return run_serve_cmd(args)


def cmd_cache(args) -> int:
    from repro.engine import ResultCache, default_cache_dir

    cache = ResultCache(args.cache_dir or default_cache_dir())
    if args.action == "stats":
        print(cache.stats().render())
    else:
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}")
    return 0


def cmd_faults(args) -> int:
    from repro.core.config import SimulationConfig
    from repro.core.simulator import simulate
    from repro.errors import FlashOutOfSpaceError, UnrecoverableDeviceError
    from repro.faults.plan import FaultPlan

    trace = _load_workload(args.workload, args.ops, args.seed)
    power_losses = args.power_loss_at
    if power_losses is None:
        power_losses = [0.5 * trace.duration]
    plan = FaultPlan(
        seed=args.seed,
        transient_read_rate=args.read_error_rate,
        transient_write_rate=args.write_error_rate,
        bad_block_rate=args.bad_block_rate,
        power_loss_times=tuple(power_losses),
        spare_segments=args.spares,
        max_retries=args.max_retries,
    )
    config = SimulationConfig(
        device=args.device,
        dram_bytes=args.dram_kb * KB,
        sram_bytes=args.sram_kb * KB,
        fault_plan=plan,
    )
    try:
        result = simulate(trace, config)
    except (FlashOutOfSpaceError, UnrecoverableDeviceError) as exc:
        print(f"trace       {trace.name} ({len(trace)} ops, {trace.duration:.0f} s)")
        print(f"device      {args.device}")
        print(f"DEVICE FAILED under the fault plan: {exc}")
        return 1
    print(f"trace       {result.trace_name} ({len(trace)} ops, "
          f"{trace.duration:.0f} s)")
    print(f"device      {result.device_name}")
    print(f"fault plan  seed {plan.seed}, read/write error rates "
          f"{plan.transient_read_rate:g}/{plan.transient_write_rate:g}, "
          f"bad-block rate {plan.bad_block_rate:g}, "
          f"{len(plan.power_loss_times)} power loss(es)")
    print(f"energy      {result.energy_j:.1f} J")
    print(f"reads       {result.n_reads}: mean {result.read_response.mean_ms:.3f} ms")
    print(f"writes      {result.n_writes}: mean {result.write_response.mean_ms:.3f} ms")
    rel = result.reliability
    if rel is None:
        print("reliability (no faults enabled: plan is a strict no-op)")
        return 0
    print("reliability")
    print(f"  retries          {rel.read_retries} read, {rel.write_retries} write "
          f"({rel.retry_delay_s * 1e3:.2f} ms backoff)")
    print(f"  unrecovered      {rel.unrecovered_errors}")
    print(f"  bad blocks       {rel.erase_failures} erase failures: "
          f"{rel.remapped_segments} remapped, {rel.retired_segments} segments + "
          f"{rel.retired_sectors} sectors retired, "
          f"{rel.spares_remaining} spare(s) left")
    print(f"  power losses     {rel.power_losses} ({rel.torn_writes} torn writes)")
    print(f"  data loss        {rel.lost_dirty_blocks} dirty blocks lost, "
          f"{rel.dropped_cache_blocks} clean blocks dropped")
    print(f"  recovery         {rel.replayed_blocks} blocks replayed from SRAM, "
          f"{rel.recovery_time_s * 1e3:.2f} ms, {rel.recovery_energy_j:.4f} J")
    return 0


def cmd_devices(args) -> int:
    from repro.devices.specs import DEVICE_SPECS

    for name, spec in sorted(DEVICE_SPECS.items()):
        kind = type(spec).__name__.replace("Spec", "")
        capacity = spec.capacity_bytes / MB
        print(f"{name:20s} {kind:10s} {capacity:6.0f} MB  "
              f"active {spec.active_power_w:.2f} W")
    return 0


def cmd_experiments(args) -> int:
    from repro.experiments.registry import all_experiments

    for experiment_id, experiment in sorted(all_experiments().items()):
        print(f"{experiment_id:22s} {experiment.paper_ref:36s} {experiment.title}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "generate": cmd_generate,
    "analyze": cmd_analyze,
    "import": cmd_import,
    "fit": cmd_fit,
    "experiment": cmd_experiment,
    "run": cmd_run,
    "fleet": cmd_fleet,
    "serve": cmd_serve,
    "cache": cmd_cache,
    "faults": cmd_faults,
    "devices": cmd_devices,
    "experiments": cmd_experiments,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Bad input (a :class:`~repro.errors.ConfigurationError`, a
    :class:`~repro.errors.TraceError` or a missing input file, from any
    command) prints one ``error:`` line to stderr and exits 2.
    """
    from repro.errors import ConfigurationError, TraceError

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigurationError, TraceError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
