"""repro.fleet — fleet-scale device populations over the engine.

Simulate ``N`` heterogeneous mobile computers (per-device hash seeds
pick each one's workload, storage device, cache sizes, spin-down policy,
and trace) and aggregate energy, latency, and wear into exact population
distributions.  Fleets decompose into ordinary engine work units, so
caching, manifests, retries, chaos, and resume all apply per shard, and
the aggregation is byte-identical for any shard/worker count.

Quickstart::

    from repro.fleet import FleetSpec, run_fleet

    run = run_fleet(FleetSpec(devices=1000, seed=7, scale=0.1), jobs=4)
    print(run.summary["population"]["metrics"]["energy_j"]["p99"])

CLI: ``python -m repro fleet --devices 1000 --jobs auto``; the job
service accepts the same fleets over HTTP (``python -m repro serve``).
"""

from repro.contract import compare_summaries
from repro.fleet.aggregate import (
    aggregate_columns,
    aggregate_rows,
    canonical_json,
    exact_quantile,
    merge_columns,
    pack_columns,
    population_summary,
    population_summary_from_columns,
    summary_table,
)
from repro.fleet.population import (
    DeviceSample,
    FleetSpec,
    device_seed,
    sample_device,
    sample_devices,
    simulate_device,
)
# Execution-side symbols live in repro.fleet.runner, which imports
# repro.engine — and the engine's result cache imports the experiment
# registry, which imports this package (to register the fleet driver).
# Loading the runner lazily (PEP 562) breaks that cycle while keeping
# ``from repro.fleet import run_fleet`` working.
_RUNNER_EXPORTS = (
    "FleetRun",
    "MAX_SHARD_DEVICES",
    "decompose_fleet",
    "default_shards",
    "rows_from_result",
    "run_fleet",
)

#: Fast-path symbols live in repro.fleet.synth (NumPy array programs);
#: loaded lazily so the row path never pays the import.
_SYNTH_EXPORTS = (
    "sample_device_batch",
    "simulate_shard_fast",
)


def __getattr__(name: str):
    if name in _RUNNER_EXPORTS:
        from repro.fleet import runner

        return getattr(runner, name)
    if name in _SYNTH_EXPORTS:
        from repro.fleet import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DeviceSample",
    "FleetRun",
    "FleetSpec",
    "MAX_SHARD_DEVICES",
    "aggregate_columns",
    "aggregate_rows",
    "canonical_json",
    "compare_summaries",
    "decompose_fleet",
    "default_shards",
    "device_seed",
    "exact_quantile",
    "merge_columns",
    "pack_columns",
    "population_summary",
    "population_summary_from_columns",
    "rows_from_result",
    "run_fleet",
    "sample_device",
    "sample_device_batch",
    "sample_devices",
    "simulate_device",
    "simulate_shard_fast",
    "summary_table",
]
