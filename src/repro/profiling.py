"""Profiling harness for experiment drivers.

``repro profile <experiment>`` shows *where* an experiment's time goes.
It runs one registered experiment three ways —

* a **cold** run (first execution: trace generation, compilation, and
  simulation all pay full price),
* a **warm** run (traces and compiled ops cached: the steady-state cost a
  sweep actually pays per configuration),
* a **profiled** warm run under :mod:`cProfile`,

— with ``perf_counter_ns`` phase timers around each, then aggregates the
profile three ways: top functions by own-time, per-module shares within
the ``repro`` package, and per-subpackage ("layer") shares, which is
where ``core`` vs. ``devices`` vs. ``traces`` attribution comes from.
Per-device-model time shows up as the ``devices.*``/``flash.*`` module
rows (one module per device model).

``--kernel`` profiles the experiment under a named simulation kernel
(``reference`` | ``batched`` | ``vector``).  When the selection differs
from the default, the harness profiles the default ``batched`` kernel
too and emits a ``comparison`` section: warm-run speedup plus the
per-subpackage own-time delta, which is where "the vector kernel moved
device time into numpy" shows up.

The report is printed human-readably and can be written as a JSON
artifact whose schema is stable across commits, so two artifacts diff
meaningfully in CI.
"""

from __future__ import annotations

import cProfile
import json
import platform
import pstats
import time
from pathlib import Path
from typing import Any, Callable

#: JSON schema version for the emitted artifact.
#: v2 adds ``kernel`` and the optional ``comparison`` section.
SCHEMA = 2


def _module_of(filename: str) -> str | None:
    """Map a profiled filename to a dotted ``repro`` module, or None."""
    path = Path(filename)
    parts = path.with_suffix("").parts
    try:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
    except ValueError:
        return None
    inside = parts[anchor + 1:]
    if not inside:
        return "repro"
    return ".".join(inside)


def _profile_pass(run: Callable[[], None], top: int) -> dict[str, Any]:
    """Cold + warm + profiled executions of ``run``; aggregated stats."""
    phases: dict[str, float] = {}

    start = time.perf_counter_ns()
    run()
    phases["cold_run_s"] = (time.perf_counter_ns() - start) / 1e9

    start = time.perf_counter_ns()
    run()
    phases["warm_run_s"] = (time.perf_counter_ns() - start) / 1e9

    profiler = cProfile.Profile()
    start = time.perf_counter_ns()
    profiler.enable()
    run()
    profiler.disable()
    phases["profiled_run_s"] = (time.perf_counter_ns() - start) / 1e9

    stats = pstats.Stats(profiler)
    total_tt = stats.total_tt or 1e-12  # type: ignore[attr-defined]

    functions = []
    modules: dict[str, float] = {}
    groups: dict[str, float] = {}
    for (filename, line, name), (
        _cc, ncalls, tottime, cumtime, _callers
    ) in stats.stats.items():  # type: ignore[attr-defined]
        module = _module_of(filename)
        if module is not None:
            modules[module] = modules.get(module, 0.0) + tottime
            group = module.split(".", 1)[0]
            groups[group] = groups.get(group, 0.0) + tottime
        functions.append(
            {
                "function": name,
                "file": filename,
                "line": line,
                "ncalls": ncalls,
                "tottime_s": tottime,
                "cumtime_s": cumtime,
            }
        )
    functions.sort(key=lambda row: row["tottime_s"], reverse=True)

    def share_table(cells: dict[str, float]) -> list[dict[str, Any]]:
        return [
            {"name": name, "tottime_s": tottime, "share": tottime / total_tt}
            for name, tottime in sorted(
                cells.items(), key=lambda item: item[1], reverse=True
            )
        ]

    return {
        "phases": phases,
        "total_profile_s": total_tt,
        "layers": share_table(groups),
        "modules": share_table(modules),
        "top_functions": functions[:top],
    }


def _compare_layers(
    baseline: dict[str, Any], candidate: dict[str, Any]
) -> list[dict[str, Any]]:
    """Per-subpackage own-time delta between two profile passes."""
    base = {row["name"]: row["tottime_s"] for row in baseline["layers"]}
    cand = {row["name"]: row["tottime_s"] for row in candidate["layers"]}
    rows = []
    for name in sorted(set(base) | set(cand)):
        base_s = base.get(name, 0.0)
        cand_s = cand.get(name, 0.0)
        rows.append(
            {
                "name": name,
                "baseline_s": base_s,
                "kernel_s": cand_s,
                "delta_s": cand_s - base_s,
                "speedup": (base_s / cand_s) if cand_s > 0 else None,
            }
        )
    rows.sort(key=lambda row: row["baseline_s"], reverse=True)
    return rows


def profile_experiment(
    experiment_id: str,
    scale: float = 0.1,
    seed: int | None = None,
    top: int = 15,
    kernel: str | None = None,
) -> dict[str, Any]:
    """Profile one experiment driver; returns the JSON-ready report.

    With ``kernel`` set to a non-default kernel, a second baseline pass
    under the default kernel is profiled and the report gains a
    ``comparison`` section (warm-run speedup, per-subpackage deltas).
    """
    from repro import __version__
    from repro.experiments.runner import run_experiment
    from repro.kernel import DEFAULT_KERNEL, validate_kernel

    if kernel is not None:
        validate_kernel(kernel)

    def runner(selected: str | None) -> Callable[[], None]:
        def run() -> None:
            run_experiment(experiment_id, scale=scale, seed=seed,
                           kernel=selected)

        return run

    report: dict[str, Any] = {
        "schema": SCHEMA,
        "experiment": experiment_id,
        "scale": scale,
        "seed": seed,
        "kernel": kernel if kernel is not None else DEFAULT_KERNEL,
        "repro_version": __version__,
        "python": platform.python_version(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    report.update(_profile_pass(runner(kernel), top))

    if kernel is not None and kernel != DEFAULT_KERNEL:
        baseline = _profile_pass(runner(DEFAULT_KERNEL), top)
        warm = report["phases"]["warm_run_s"]
        base_warm = baseline["phases"]["warm_run_s"]
        report["comparison"] = {
            "baseline_kernel": DEFAULT_KERNEL,
            "baseline_phases": baseline["phases"],
            "warm_speedup": (base_warm / warm) if warm > 0 else None,
            "layers": _compare_layers(baseline, report),
        }
    return report


def render_report(report: dict[str, Any], top: int = 15) -> str:
    """A human-readable rendering of :func:`profile_experiment`'s output."""
    lines = [
        f"profile of {report['experiment']!r} "
        f"(scale {report['scale']:g}, seed {report['seed']}, "
        f"kernel {report.get('kernel', 'batched')}, "
        f"repro {report['repro_version']}, python {report['python']})",
        "",
        "phases",
    ]
    for phase, seconds in report["phases"].items():
        lines.append(f"  {phase:16s} {seconds:8.3f} s")
    lines.append("")
    lines.append("time share by layer (subpackage, profiled run)")
    for row in report["layers"]:
        lines.append(
            f"  {row['name']:24s} {row['tottime_s']:8.3f} s  {row['share']:6.1%}"
        )
    lines.append("")
    lines.append("time share by module")
    for row in report["modules"][:top]:
        lines.append(
            f"  {row['name']:24s} {row['tottime_s']:8.3f} s  {row['share']:6.1%}"
        )
    lines.append("")
    lines.append(f"top {len(report['top_functions'])} functions by own time")
    for row in report["top_functions"]:
        where = f"{Path(row['file']).name}:{row['line']}"
        lines.append(
            f"  {row['tottime_s']:8.3f} s  {row['ncalls']:>9} calls  "
            f"{row['function']} ({where})"
        )
    comparison = report.get("comparison")
    if comparison:
        lines.append("")
        speedup = comparison.get("warm_speedup")
        lines.append(
            f"comparison vs {comparison['baseline_kernel']} kernel "
            f"(warm run {speedup:.2f}x)" if speedup is not None else
            f"comparison vs {comparison['baseline_kernel']} kernel"
        )
        lines.append(
            f"  {'subpackage':24s} {'baseline':>10s} {'kernel':>10s} "
            f"{'delta':>10s} {'speedup':>8s}"
        )
        for row in comparison["layers"]:
            speed = row["speedup"]
            speed_text = f"{speed:7.1f}x" if speed is not None else "      --"
            lines.append(
                f"  {row['name']:24s} {row['baseline_s']:9.3f}s "
                f"{row['kernel_s']:9.3f}s {row['delta_s']:+9.3f}s {speed_text}"
            )
    return "\n".join(lines)


def write_report(report: dict[str, Any], path: str | Path) -> Path:
    """Write the JSON artifact; returns the path written."""
    path = Path(path)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return path
