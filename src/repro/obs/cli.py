"""CLI verbs ``repro trace`` and ``repro metrics``.

Both verbs drive a registered experiment's inspection probes (the same
representative cells ``repro inspect`` uses) through one
:class:`~repro.obs.session.ObservabilitySession` and export the recorded
artifacts:

* ``repro trace`` writes a Chrome ``trace_event`` JSON (load it in
  Perfetto or ``chrome://tracing``) with one process track per probe
  simulation, plus optionally the raw events as JSON Lines;
* ``repro metrics`` writes the sampled time-series registry as JSON,
  plus optionally a Prometheus text exposition of the final run.

Each verb prints a per-run summary including the trace-vs-report
agreement check: the summed per-layer latency slices must equal the
latency column of ``SimulationResult.layer_breakdown`` (bit-for-bit —
the session accumulates the collector's exact floats in its exact fold
order).
"""

from __future__ import annotations

import sys

from repro.obs.session import ObservabilitySession


def resolve_experiment_id(experiment_id: str) -> str:
    """Map a CLI spelling onto a registry id.

    Accepts the ``exp_`` prefix some harnesses add (``exp_table3`` ->
    ``table3``) when the stripped id is registered.
    """
    from repro.experiments.registry import all_experiments

    registry = all_experiments()
    if experiment_id not in registry and experiment_id.startswith("exp_"):
        stripped = experiment_id[len("exp_"):]
        if stripped in registry:
            return stripped
    return experiment_id


def run_observed_probes(
    experiment_id: str,
    session: ObservabilitySession,
    scale: float = 0.1,
    seed: int | None = None,
) -> list[dict]:
    """Run the experiment's probes through ``session``; returns run summaries.

    Raises :class:`~repro.errors.ConfigurationError` for an unknown
    experiment id (after ``exp_`` normalisation).
    """
    from repro.core.simulator import simulate
    from repro.experiments.inspection import probes_for
    from repro.experiments.registry import get_experiment
    from repro.experiments.traces_cache import trace_for

    experiment_id = resolve_experiment_id(experiment_id)
    get_experiment(experiment_id)  # validates the id
    summaries = []
    for probe in probes_for(experiment_id):
        trace = trace_for(probe.trace_name, scale, seed=seed)
        simulate(trace, probe.config(), obs=session)
        summary = session.runs[-1]
        summary["probe"] = probe.label
        summaries.append(summary)
    return summaries


def _print_run_summaries(summaries: list[dict]) -> bool:
    """Per-run agreement lines; returns True when every run agrees."""
    all_ok = True
    for summary in summaries:
        diff = summary.get("agreement_max_abs_diff")
        ok = diff is not None and diff <= 1e-9
        all_ok = all_ok and ok
        layers = summary["layer_latency_s"]
        total = sum(layers.values())
        status = "ok" if ok else "MISMATCH"
        print(f"run {summary['run']}: {summary['probe']:42s} "
              f"{total:10.6f} s across {len(layers)} layer(s)  "
              f"agreement {status} (max |diff| {diff:g})")
    return all_ok


def cmd_trace(args) -> int:
    """``repro trace <experiment>``: record and export an event trace."""
    session = ObservabilitySession(
        trace_capacity=args.capacity,
        sample_interval_ops=args.sample_interval,
    )
    summaries = run_observed_probes(
        args.experiment_id, session, scale=args.scale, seed=args.seed
    )

    tracer = session.tracer
    counts = tracer.counts()
    print(f"traced {len(summaries)} probe run(s): "
          f"{tracer.emitted} event(s) emitted, {tracer.dropped} dropped")
    print("  " + ", ".join(f"{kind}={count}"
                           for kind, count in sorted(counts.items())))
    all_ok = _print_run_summaries(summaries)

    written = tracer.write_chrome(args.trace_out)
    print(f"chrome trace: {written}  (open in Perfetto / chrome://tracing)")
    if args.jsonl_out:
        written = tracer.write_jsonl(args.jsonl_out)
        print(f"jsonl events: {written}")
    if not all_ok:
        print("error: trace/report layer attribution mismatch",
              file=sys.stderr)
        return 1
    return 0


def cmd_metrics(args) -> int:
    """``repro metrics <experiment>``: sample and export the registry."""
    session = ObservabilitySession(sample_interval_ops=args.sample_interval)
    summaries = run_observed_probes(
        args.experiment_id, session, scale=args.scale, seed=args.seed
    )

    registry = session.registry
    print(f"sampled {len(summaries)} probe run(s) every "
          f"{registry.sample_interval_ops} op(s)")
    all_ok = _print_run_summaries(summaries)

    import json

    with open(args.metrics_out, "w") as stream:
        json.dump(session.to_json_dict(), stream, indent=2)
    print(f"metrics json: {args.metrics_out}")
    if args.prom_out:
        written = registry.write_prometheus(args.prom_out)
        print(f"prometheus text (final run): {written}")
    if not all_ok:
        print("error: trace/report layer attribution mismatch",
              file=sys.stderr)
        return 1
    return 0
