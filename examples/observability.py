"""Scenario: watch one simulation from the inside.

The experiment reports say what a run cost; the observability layer says
when and where inside the run.  This example attaches an
ObservabilitySession to simulations of the paper's mac workload on all
three storage alternatives, then:

* checks the agreement contract — the per-layer latency slices recorded
  in the trace sum to `SimulationResult.layer_breakdown` bit for bit;
* prints the event mix (requests, layer slices, spin-ups, cleaning
  stalls, background erases) and a few sampled metrics;
* writes `observability_trace.json` — open https://ui.perfetto.dev (or
  chrome://tracing) and load it: one process track per device, one named
  thread per layer — plus the metrics series as JSON and the final run
  in Prometheus text form.

Run:  python examples/observability.py
"""

from repro import SimulationConfig, simulate, workload_by_name
from repro.obs import ObservabilitySession, read_chrome_layer_totals

ALTERNATIVES = (
    ("magnetic disk", "cu140-datasheet"),
    ("flash disk", "sdp5a-datasheet"),
    ("flash card", "intel-datasheet"),
)


def main() -> None:
    trace = workload_by_name("mac").generate(seed=1, n_ops=6_000)
    print(f"workload: {len(trace)} ops over {trace.duration:.0f} s\n")

    session = ObservabilitySession()
    for label, device in ALTERNATIVES:
        result = simulate(trace, SimulationConfig(device=device), obs=session)
        run = session.runs[-1]
        layers = ", ".join(
            f"{name} {value:.2f}s"
            for name, value in run["layer_latency_s"].items()
            if value
        )
        print(f"{label:>14s}: {layers}")
        print(f"{'':>14s}  trace/report agreement: max |diff| = "
              f"{run['agreement_max_abs_diff']:g}  "
              f"(energy {result.energy_j:.1f} J)")

    counts = session.tracer.counts()
    print(f"\nevent mix across {len(session.runs)} runs "
          f"({session.tracer.emitted} events):")
    for kind in sorted(counts, key=counts.get, reverse=True):
        print(f"  {kind:>10s} {counts[kind]:7d}")

    registry = session.registry  # holds the final (flash card) run
    resp = registry.get("response_time_s").sample()
    print(f"\nfinal run metrics: {registry.get('ops_total').sample():.0f} ops, "
          f"{resp['count']} response samples, "
          f"{len(registry.samples)} time-series rows")
    wear = registry.get("segment_wear_erases").sample()
    print(f"segment wear: {wear['count']:.0f} segments, "
          f"{wear['sum']:.0f} erases total")

    trace_path = session.tracer.write_chrome("observability_trace.json")
    metrics_path = registry.write_json("observability_metrics.json")
    prom_path = registry.write_prometheus("observability_metrics.prom")
    print(f"\nwrote {trace_path} — load it at https://ui.perfetto.dev")
    print(f"wrote {metrics_path} and {prom_path}")

    # The exported artifact agrees with the reports too, read back cold.
    per_run = read_chrome_layer_totals(trace_path)
    print(f"re-read from the trace file: {len(per_run)} runs, device layer "
          f"totals "
          + ", ".join(f"{run.get('device', 0.0):.2f}s" for run in per_run))


if __name__ == "__main__":
    main()
