"""The full Table 4 matrix and a cleaning-policy matrix under both
kernels, at any scale.

Extends ``test_kernel_equivalence.py`` from four short workloads to every
paper cell (3 traces x 7 devices) plus, on each trace, the flash card
under every cleaning policy at two utilizations (3 traces x 5 policies x
{0.8, 0.95}), run under the batched and vector kernels.  Per cell it
checks that the vector result matches the batched event path within the
declared tolerances (:mod:`repro.contract`), or fell back to batched with
a named reason on a cell outside the vector envelope.

A full-scale sweep takes over a minute, so pytest does not collect this
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
#: The card whose cleaner the policy matrix sweeps, every cleaning
#: policy, and the utilizations it runs them at.
POLICY_CARD = "intel-datasheet"
POLICIES = ("greedy", "cost-benefit", "envy", "wear-aware", "cold-swap")
POLICY_UTILIZATIONS = (0.8, 0.95)


def cells(trace_name: str):
    """(label, config) for every cell of one trace: its Table 4 row, then
    the card under each cleaning policy and utilization."""
    for device in DEVICE_ROWS:
        yield device, SimulationConfig(
            device=device,
            dram_bytes=dram_for(trace_name),
            spin_down_timeout_s=5.0,
            flash_utilization=0.8,
        )
    for policy in POLICIES:
        for utilization in POLICY_UTILIZATIONS:
            yield f"{POLICY_CARD}/{policy}@{utilization}", SimulationConfig(
                device=POLICY_CARD,
                dram_bytes=dram_for(trace_name),
                flash_utilization=utilization,
                cleaning_policy=policy,
            )


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
    checked = fallbacks = 0
    for trace_name in TRACES:
        trace = trace_for(trace_name, args.scale, seed=args.seed)
        for label, config in cells(trace_name):
            cell, fallback = check_cell(trace, config)
            checked += 1
            fallbacks += fallback is not None
            status = f"fallback: {fallback}" if fallback else "vector"
            if cell:
                status += f", {len(cell)} violation(s)"
            print(f"{trace_name:4s} {label:34s} {status}")
            problems += [f"{trace_name}/{label} {m}" for m in cell]

    print(f"\n{checked - fallbacks} vectorized cell(s), "
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
