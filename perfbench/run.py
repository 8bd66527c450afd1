"""The repository's benchmark: one command for every front door.

    python3 perfbench/run.py --workload table4 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: it times
``setup_s`` (fresh launches), then repeats the workload cold for as many
repetitions as fit in ``--seconds`` (at least the workload's minimum),
checking the program's output on every repetition, and reports each
metric from the repetition at the good end's 10th percentile.
``--trace 1`` runs one repetition with spans around every layer boundary
(see spans.py), between two untraced ones, and prints the per-layer table
instead.  The last line of standard output is the JSON result.
``--self-check`` runs a short traced smoke of every workload and fails if
any wrapped name records no call.

Everything the run writes goes to ``.bench_tmp/`` in the checkout and is
removed on exit.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_ops_per_s", "ops/s"),
    ("devices_per_s", "devices/s"),
    ("job_p50_s", "s"),
    ("job_p75_s", "s"),
)

#: The fastest vCPU's probe seconds (see ``workloads.probe_cpus``) on the
#: 2-vCPU host the benchmark was tuned on, in a quiet stretch.  End-to-end
#: times are multiplied by (this / the run's median probe) **
#: ``PROBE_EXPONENT`` and rates divided by it, so that a change in the
#: whole host's load between runs mostly cancels.
REFERENCE_PROBE_S = 0.008
#: The workloads slow less than the probe when the host is loaded: over
#: two ten-seed sets of table4 whose median probe went from 8.5 to 14 ms,
#: unscaled wall_s grew as about the 0.75 power of the probe.
PROBE_EXPONENT = 0.75


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def environment(args: argparse.Namespace, seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (server,
    pool worker or setup launch), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def p75(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def best_decile(values: list[float], higher: bool = False) -> float:
    """The run's figure for a per-repetition value: the repetition at the
    good end's 10th percentile, which is the best one below ten.

    A shared host alternates between a fast and a slow phase lasting
    seconds to tens of seconds (see README.md), so a median over one
    run's repetitions reads whichever phase held longer.  Short
    repetitions and a value near the fast end read the fast phase in
    every run."""
    ordered = sorted(values, reverse=higher)
    return ordered[len(ordered) // 10]


def end_to_end(workload, ctx, seconds: float) -> dict[str, float] | None:
    from spans import SimTally
    from workloads import pin_to_fastest_cpu, probe_cpus

    cpus = os.sched_getaffinity(0)
    pinned = cpus if workload.single_process else None
    tally = None
    reps, attempts, probes = [], 0, []
    try:
        setup_s = workload.setup(ctx, pinned)
        workload.prepare(ctx)
        tally = SimTally() if workload.tally else None
        if tally is not None:
            tally.install()
        start = time.perf_counter()
        # Start another repetition only if it should finish in time.
        while attempts < workload.min_reps or (
            (time.perf_counter() - start) * (attempts + 1) / attempts <= seconds
        ):
            attempts += 1
            if pinned is not None:
                probes.append(pin_to_fastest_cpu(pinned))
            else:
                probes.append(min(probe_cpus(cpus).values()))
            before = tally.read() if tally is not None else (0, 0)
            try:
                rep = workload.rep(ctx)
            except Exception:
                ctx.checks.expect(False, f"{workload.name} repetition raised:\n"
                                         f"{traceback.format_exc()}")
                continue
            if tally is not None:
                simulations, ops = tally.read()
                rep.devices, rep.ops = simulations - before[0], ops - before[1]
                ctx.checks.expect(rep.devices > 0,
                                  "Simulator.run tally counted no simulations")
            reps.append(rep)
    finally:
        os.sched_setaffinity(0, cpus)
        if tally is not None:
            tally.uninstall()
        workload.close(ctx)
    if not reps:
        return None
    jobs = sum(len(rep.jobs_s) for rep in reps)
    walls = [rep.wall_s for rep in reps]
    print(f"# {len(reps)} repetition(s), {jobs} job(s); wall_s median "
          f"{statistics.median(walls):.6g}, min {min(walls):.6g}, "
          f"max {max(walls):.6g}")
    scale = (REFERENCE_PROBE_S / statistics.median(probes)) ** PROBE_EXPONENT
    print(f"# probe before each repetition: median "
          f"{statistics.median(probes) * 1e3:.4g} ms, so times are scaled by "
          f"{scale:.6g}; unscaled wall_s {best_decile(walls):.6g}, "
          f"setup_s {setup_s:.6g}, job_p50_s "
          f"{best_decile([statistics.median(rep.jobs_s) for rep in reps]):.6g}")
    return {
        "wall_s": best_decile(walls) * scale,
        "setup_s": setup_s * scale,
        "peak_rss_mb": peak_rss_mb(),
        "sim_ops_per_s": best_decile([rep.ops / rep.wall_s for rep in reps],
                                     higher=True) / scale,
        "devices_per_s": best_decile([rep.devices / rep.wall_s for rep in reps],
                                     higher=True) / scale,
        "job_p50_s": best_decile([statistics.median(rep.jobs_s)
                                  for rep in reps]) * scale,
        "job_p75_s": best_decile([p75(rep.jobs_s) for rep in reps]) * scale,
    }


def per_layer(workload, ctx) -> dict[str, float]:
    from spans import Recorder, install, layer_metrics

    workload.prepare(ctx)
    # Untraced repetitions on both sides of the traced one: the first
    # also pays one-off warm-up, so the overhead ratio uses the faster.
    before = workload.rep(ctx)
    recorder = Recorder()
    install(recorder)
    try:
        traced = workload.rep(ctx, traced=True)
    finally:
        recorder.uninstall()
    untraced_s = min(before.wall_s, workload.rep(ctx).wall_s)
    totals = recorder.totals()
    for name in sorted(workload.expected - totals.keys()):
        ctx.checks.expect(False, f"wrapped name {name!r} recorded no call: a "
                                 f"stale binding, or {workload.name} no longer "
                                 f"reaches that layer")
    extra = dict(traced.extra)
    extra["trace_overhead_ratio"] = traced.wall_s / untraced_s
    return layer_metrics(recorder, extra)


def report(ctx, values: dict[str, float], units: dict[str, str]) -> None:
    for name, value in values.items():
        print(f"# {name:<44} {value:>16.6g} {units[name]}")
    checks = ctx.checks
    print(f"# error_rate {checks.failed / max(1, checks.attempted):.6g} "
          f"({checks.failed} of {checks.attempted} units, jobs and output "
          f"checks failed)")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }), flush=True)


def self_check() -> int:
    """Every wrapped name is expected by some workload, and a short traced
    smoke of each workload sees a call on each name it expects."""
    from spans import Recorder, install
    from workloads import WORKLOADS

    recorder = Recorder()
    install(recorder)
    recorder.uninstall()
    covered = set().union(*(cls.expected for cls in WORKLOADS.values()))
    failures = [f"wrapped but expected by no workload: {name}"
                for name in sorted(recorder.wrapped - covered)]
    failures += [f"expected but never wrapped: {name}"
                 for name in sorted(covered - recorder.wrapped)]
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", "1",
             "--seconds", "1", "--trace", "1", "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
        ok = result.get("correct") is True
        print(f"{name:<12} {'ok' if ok else 'FAILED'}", flush=True)
        if not ok:
            failures.append(f"{name} smoke failed:\n{done.stderr[-2000:]}")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload to seconds (self-check)")
    parser.add_argument("--self-check", action="store_true",
                        help="smoke every workload traced; fail on a wrapped "
                        "name with no calls")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")

    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    os.environ.update({
        "REPRO_CACHE_DIR": str(tmp / "default-cache"),
        "TMPDIR": str(tmp),
        "MPLCONFIGDIR": str(tmp / "matplotlib"),
    })
    tempfile.tempdir = str(tmp)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    )

    from workloads import Context

    seed = args.seed % 2**31
    ctx = Context(root=ROOT, tmp=tmp, seed=seed, smoke=args.smoke, env=env)
    print("# env " + json.dumps(environment(args, seed)), flush=True)
    workload = WORKLOADS[args.workload](ctx, traced=bool(args.trace))
    try:
        if args.trace:
            from spans import LAYER_METRICS

            values = per_layer(workload, ctx)
            units = dict(LAYER_METRICS)
        else:
            values = end_to_end(workload, ctx, args.seconds)
            units = dict(END_TO_END)
            if values is None:
                print("error: every repetition failed", file=sys.stderr)
                return 1
    finally:
        workload.close(ctx)
        import multiprocessing

        for child in multiprocessing.active_children():
            child.join(60)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    report(ctx, values, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
