"""Scenario: tuning a disk's spin-down timeout.

The paper fixes the threshold at 5 s, citing earlier studies; this example
shows the trade-off surface on your own workload mix — energy versus the
spin-up delays users feel.

Run:  python examples/spindown_tuning.py
"""

from repro import SimulationConfig, Simulator, workload_by_name

THRESHOLDS = (1.0, 2.0, 5.0, 10.0, 30.0, None)


def main() -> None:
    trace = workload_by_name("mac").generate(seed=11, n_ops=40_000)
    print(f"workload: {len(trace)} ops over {trace.duration / 3600:.1f} h\n")

    print(f"{'policy':>12s} {'energy J':>9s} {'read ms':>8s} "
          f"{'read max ms':>12s} {'spin-ups':>9s}")
    for threshold in THRESHOLDS:
        config = SimulationConfig(
            device="cu140-datasheet", spin_down_timeout_s=threshold
        )
        result = Simulator(config).run(trace)
        label = "never" if threshold is None else f"{threshold:g}s fixed"
        print(
            f"{label:>12s} {result.energy_j:9.1f} "
            f"{result.read_response.mean_ms:8.3f} "
            f"{result.read_response.max_ms:12.1f} "
            f"{result.device_stats['spin_ups']:9.0f}"
        )

    print(
        "\nshort timeouts trade user-visible spin-up stalls for idle "
        "watts; the paper's 5 s default sits near the knee."
    )


if __name__ == "__main__":
    main()
