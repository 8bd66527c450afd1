"""Vector-path entry point: envelope check, dispatch, result assembly.

:func:`simulate_vector` is the array-native counterpart of
``Simulator.run(trace, kernel="batched")``.  It compiles the trace, builds the
*same* hierarchy the event path would (so device sizing, preload, and spec
resolution stay in one place), then hands the compiled trace's arrays to
the device-appropriate kernel:

* :class:`~repro.kernel.disk_kernel.DiskKernel` (magnetic disk + SRAM),
* :func:`~repro.kernel.flashdisk_kernel.run_flashdisk` (coupled flash
  disk),
* :class:`~repro.kernel.flashcard_kernel.CardKernel` (flash card).

The kernels return raw per-op response arrays plus device accounting; this
module rebuilds the :class:`~repro.core.results.SimulationResult` —
response statistics, per-component energy, per-layer breakdown — exactly
as ``Simulator._result`` would, modulo the floating-point reassociation
the kernel gate of :mod:`repro.contract` declares.

Not every configuration vectorizes.  :func:`unsupported_reason` describes
the envelope; callers fall back to the batched event path (annotating
the result) whenever it returns a reason.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.hierarchy import build_hierarchy
from repro.core.metrics import ResponseStats
from repro.core.results import SimulationResult
from repro.devices.disk import MagneticDisk
from repro.devices.flashcard import FlashCard
from repro.devices.flashdisk import FlashDisk
from repro.devices.specs import DiskSpec, FlashCardSpec, FlashDiskSpec, device_spec
from repro.kernel.disk_kernel import DiskKernel
from repro.kernel.dram import classify
from repro.kernel.flashcard_kernel import CardKernel
from repro.kernel.flashdisk_kernel import run_flashdisk
from repro.traces.compiled import compile_trace
from repro.traces.trace import DELETE, READ, WRITE

if TYPE_CHECKING:
    from repro.core.config import SimulationConfig
    from repro.core.layers import LayerStack
    from repro.traces.compiled import CompiledOps
    from repro.traces.trace import Trace


def unsupported_reason(config: "SimulationConfig", obs=None) -> str | None:
    """Why ``config`` cannot take the vector path, or None if it can.

    The envelope covers the paper's entire Table 4 / Figure 4 sweep:
    write-through LRU DRAM, optional SRAM in front of a magnetic disk with
    a fixed (or no) spin-down timeout, coupled-mode flash disks, and
    greedy-cleaned flash cards.  Everything else — faults, observability
    sessions, write-back caches, non-greedy cleaners — falls back to the
    batched event path, which remains the semantic ground truth.
    """
    if obs is not None:
        return "observability session active"
    if config.fault_plan is not None:
        return "fault injection configured"
    if config.write_back:
        return "write-back DRAM cache"
    if config.flash_cache_bytes:
        return "flash-backed disk cache"
    spec = device_spec(config.device)
    if isinstance(spec, DiskSpec):
        pass  # fixed/no spin-down timeout, both supported
    elif isinstance(spec, FlashDiskSpec):
        if spec.supports_async_erase:
            return "decoupled (async) flash-disk erasure"
        if config.sram_on_flash and config.sram_bytes:
            return "SRAM buffer on flash"
    elif isinstance(spec, FlashCardSpec):
        if config.cleaning_policy != "greedy":
            return f"cleaning policy {config.cleaning_policy!r}"
        if config.sram_on_flash and config.sram_bytes:
            return "SRAM buffer on flash"
    else:
        return f"unsupported device spec {type(spec).__name__}"
    return None


def simulate_vector(trace: "Trace", config: "SimulationConfig") -> SimulationResult:
    """Run ``trace`` under ``config`` through the vector kernels.

    Callers must have rejected an empty trace and checked
    :func:`unsupported_reason` first, as ``Simulator.run`` does; behaviour
    outside the envelope is undefined (typically an exception).
    """
    compiled = compile_trace(trace)
    hierarchy = build_hierarchy(
        config, trace.block_size, max(1, compiled.dataset_blocks)
    )
    n = compiled.n_ops
    warm_count = int(n * config.warm_fraction)

    dram = hierarchy.dram
    if dram is not None:
        plan = classify(trace, compiled, dram.capacity_blocks)
        wait = plan.waits_for(compiled, dram.spec, hierarchy.block_bytes)
    else:
        plan = None
        wait = np.zeros(n, dtype=np.float64)

    device = hierarchy.device
    if isinstance(device, MagneticDisk):
        kernel = DiskKernel(device, hierarchy.sram, plan, hierarchy.block_bytes)
        outcome = kernel.run(compiled, wait, warm_count, trace.duration)
    elif isinstance(device, FlashDisk):
        outcome = run_flashdisk(
            device, compiled, wait, plan, warm_count, trace.duration
        )
    elif isinstance(device, FlashCard):
        kernel = CardKernel(device, plan, hierarchy.block_bytes)
        outcome = kernel.run(compiled, wait, warm_count, trace.duration)
    else:  # pragma: no cover - guarded by unsupported_reason
        raise TypeError(f"no vector kernel for {type(device).__name__}")

    return _assemble(
        trace, config, hierarchy, compiled, wait, plan, outcome, warm_count
    )


def _response_stats(values: np.ndarray) -> ResponseStats:
    """Match ``ResponseAccumulator.snapshot`` for a full value array.

    The percentile formula mirrors the accumulator's sorted-index lookup;
    it is bit-identical while the reference reservoir holds every value
    (count <= 4096) and a better estimate beyond that, which is why the
    tolerance layer only compares percentiles for small counts.
    """
    count = int(values.size)
    if count == 0:
        return ResponseStats(count=0, mean_s=0.0, max_s=0.0, std_s=0.0)
    ordered = np.sort(values)

    def pct(q: float) -> float:
        return float(ordered[min(count - 1, int(q * count))])

    return ResponseStats(
        count=count,
        mean_s=float(values.mean()),
        max_s=float(ordered[-1]),
        std_s=float(values.std()) if count >= 2 else 0.0,
        p50_s=pct(0.50),
        p95_s=pct(0.95),
        p99_s=pct(0.99),
    )


def _assemble(
    trace: "Trace",
    config: "SimulationConfig",
    hierarchy: "LayerStack",
    compiled: "CompiledOps",
    wait: np.ndarray,
    plan,
    outcome: dict,
    warm_count: int,
) -> SimulationResult:
    n = compiled.n_ops
    end_time = outcome["end_time"]
    resp = outcome["responses"][warm_count:]
    kinds = compiled.op_codes[warm_count:]
    if warm_count < n:
        measured_start = float(compiled.time[warm_count])
    else:
        measured_start = end_time
    duration = max(0.0, end_time - measured_start)
    # The component clocks sit at the last warm op's time when the warm
    # boundary resets their meters; standby power runs from there to the
    # end of the run.
    clock_reset = float(compiled.time[warm_count - 1]) if warm_count > 0 else 0.0
    standby_window = end_time - clock_reset

    breakdown: dict[str, dict[str, float]] = {
        "device": dict(outcome["device_buckets"])
    }
    dram = hierarchy.dram
    dram_latency = 0.0
    dram_hit_rate = None
    if dram is not None:
        dram_latency = float(wait[warm_count:].sum())
        buckets = {}
        standby = dram._standby_w * standby_window
        if standby:
            buckets["standby"] = standby
        active = dram.spec.active_power_w * dram_latency
        if active:
            buckets["active"] = active
        breakdown["dram"] = buckets
        hits = int(plan.hit_counts[warm_count:].sum())
        misses = int(plan.miss_counts[warm_count:].sum())
        total = hits + misses
        dram_hit_rate = hits / total if total else 0.0
    sram = hierarchy.sram
    sram_latency = 0.0
    if sram is not None:
        sram_latency = float(outcome.get("sram_wait_s", 0.0))
        buckets = {}
        standby = sram._standby_w * standby_window
        if standby:
            buckets["standby"] = standby
        active = sram.spec.active_power_w * sram_latency
        if active:
            buckets["active"] = active
        breakdown["sram"] = buckets

    energy_j = sum(sum(b.values()) for b in breakdown.values())

    clean_energy = outcome["cleaning_energy_j"]
    clean_latency = outcome["cleaning_latency_s"]
    layer_breakdown: dict[str, dict[str, float]] = {}
    if dram is not None:
        layer_breakdown["dram"] = {
            "latency_s": dram_latency,
            "energy_j": sum(breakdown["dram"].values()),
        }
    if sram is not None:
        layer_breakdown["sram"] = {
            "latency_s": sram_latency,
            "energy_j": sum(breakdown["sram"].values()),
        }
    layer_breakdown["device"] = {
        "latency_s": outcome["device_latency_s"],
        "energy_j": sum(breakdown["device"].values()) - clean_energy,
    }
    if clean_energy or clean_latency:
        layer_breakdown["cleaning"] = {
            "latency_s": clean_latency,
            "energy_j": clean_energy,
        }

    device = hierarchy.device
    wear = device.wear(duration) if isinstance(device, FlashCard) else None
    read_stats = _response_stats(resp[kinds == READ])
    write_stats = _response_stats(resp[kinds == WRITE])

    return SimulationResult(
        trace_name=trace.name,
        device_name=device.name,
        config=config,
        duration_s=duration,
        energy_j=energy_j,
        energy_breakdown=breakdown,
        read_response=read_stats,
        write_response=write_stats,
        overall_response=_response_stats(resp[kinds != DELETE]),
        n_reads=read_stats.count,
        n_writes=write_stats.count,
        n_deletes=int((kinds == DELETE).sum()),
        device_stats=outcome["device_stats"],
        dram_hit_rate=dram_hit_rate,
        wear=wear,
        reliability=None,
        layer_breakdown=layer_breakdown,
        extra={"kernel": "vector"},
    )
