"""The full Table 4 matrix under both kernels, at any scale.

Extends ``test_kernel_equivalence.py`` from four short workloads to every
paper cell (3 traces x 7 devices), run under the batched and vector
kernels.  Per cell it checks that the vector result matches the batched
event path within the declared tolerances (:mod:`repro.contract`), or
fell back to batched with a named reason on a cell outside the vector
envelope.

A full-scale sweep takes about a minute, so pytest does not collect this
file; run it as a script::

    PYTHONPATH=src python tests/kernel_sweep.py --scale 1.0

Exit status 1 on any violation.
"""

from __future__ import annotations

import argparse
import sys

from repro.contract import compare_results
from repro.core.config import SimulationConfig
from repro.core.simulator import simulate
from repro.experiments.exp_table4 import DEVICE_ROWS
from repro.experiments.traces_cache import dram_for, trace_for

TRACES = ("mac", "dos", "hp")


def check_cell(trace, config) -> tuple[list[str], str | None]:
    """(violations, vector fallback reason) for one trace/config cell."""
    vector = simulate(trace, config, kernel="vector")
    fallback = vector.extra.get("kernel_fallback_reason")
    if fallback is not None:
        return [], fallback
    batched = simulate(trace, config, kernel="batched")
    return list(compare_results(batched, vector).problems()), None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", type=float, default=0.2,
                        help="trace-length scale in (0, 1] (default 0.2)")
    parser.add_argument("--seed", type=int, default=None,
                        help="trace-generation seed (default: module default)")
    args = parser.parse_args(argv)

    problems: list[str] = []
    fallbacks = 0
    for trace_name in TRACES:
        trace = trace_for(trace_name, args.scale, seed=args.seed)
        for device in DEVICE_ROWS:
            config = SimulationConfig(
                device=device,
                dram_bytes=dram_for(trace_name),
                spin_down_timeout_s=5.0,
                flash_utilization=0.8,
            )
            cell, fallback = check_cell(trace, config)
            fallbacks += fallback is not None
            status = f"fallback: {fallback}" if fallback else "vector"
            if cell:
                status += f", {len(cell)} violation(s)"
            print(f"{trace_name:4s} {device:20s} {status}")
            problems += [f"{trace_name}/{device} {m}" for m in cell]

    cells = len(TRACES) * len(DEVICE_ROWS)
    print(f"\n{cells - fallbacks} vectorized cell(s), "
          f"{fallbacks} fallback cell(s)")
    if problems:
        print(f"\n{len(problems)} tolerance violation(s):", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print("kernel equivalence holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
