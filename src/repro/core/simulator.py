"""The trace-driven simulation engine.

``Simulator.run`` executes one trace against one configured storage
hierarchy and returns a :class:`~repro.core.results.SimulationResult`.  The
methodology follows the paper's section 4.2: file-level records are
preprocessed into disk-level operations, the first 10% of the trace warms
the caches (its statistics and energy are discarded), and the remainder is
measured.

The engine itself is one thin loop (``Simulator._execute``) over the
:class:`~repro.core.layers.LayerStack` that ``build_hierarchy`` assembles,
and every cross-cutting concern rides the stack's hook bus.  Scheduled
power losses fire from an ``on_submit`` subscriber (each loss strictly
precedes the request that would overtake it), and all statistics flow
through a :class:`~repro.core.metrics.MetricsCollector` subscribed to
``on_complete``.

Every event-driven simulation runs that loop over the trace's compiled
form (:func:`~repro.traces.compiled.compile_trace`, cached on the trace):
:meth:`~repro.core.layers.LayerStack.run_batch` drives a range of the
compiled columns through the stack, recycling one pooled Request/Response
pair across every operation.  The vector kernel
(:mod:`repro.kernel.vector`) is the other engine behind ``Simulator.run``;
configurations outside its envelope come back to this loop.
"""

from __future__ import annotations

from repro.core.config import SimulationConfig
from repro.core.hierarchy import build_hierarchy
from repro.core.layers import CLEANING_LAYER, LayerStack
from repro.core.metrics import MetricsCollector
from repro.core.results import SimulationResult
from repro.devices.flashcard import FlashCard
from repro.errors import TraceError
from repro.faults.injector import FaultInjector
from repro.kernel import runtime as kernel_runtime
from repro.kernel import validate_kernel
from repro.obs import runtime as obs_runtime
from repro.traces.compiled import CompiledOps, compile_trace
from repro.traces.trace import Trace


class Simulator:
    """Runs traces against a configured storage hierarchy."""

    def __init__(self, config: SimulationConfig | None = None) -> None:
        self.config = config if config is not None else SimulationConfig()

    def run(
        self,
        trace: Trace,
        *,
        obs=None,
        kernel: str | None = None,
    ) -> SimulationResult:
        """Simulate ``trace`` and return the measured statistics.

        ``kernel`` selects the simulation engine by name (``batched`` or
        ``vector``); when omitted, the process-global selection from
        :mod:`repro.kernel.runtime` applies, and when that is unset too the
        batched path runs without recording a kernel in ``result.extra``.
        The ``vector`` kernel answers within the documented floating-point
        tolerance (:func:`repro.contract.compare_results`); configurations
        outside its envelope fall back to ``batched`` and record why in
        ``result.extra["kernel_fallback_reason"]``.

        ``obs`` optionally attaches an
        :class:`~repro.obs.session.ObservabilitySession` (event tracing +
        metrics) to this run; when omitted, the process-global session
        from :mod:`repro.obs.runtime` is used if one is installed.
        Observability subscribes through the hook bus and device sink
        only — it never participates in the simulation arithmetic, so
        results are bit-identical with or without it.
        """
        if obs is None:
            obs = obs_runtime.active()
        if kernel is None:
            kernel = kernel_runtime.active()
        if kernel is not None:
            validate_kernel(kernel)
        # Every path compiles one block operation per trace record.
        if len(trace) == 0:
            raise TraceError(
                f"trace {trace.name!r} produced no block operations; nothing "
                "to simulate (check the trace generator and scale parameters)"
            )
        if kernel == "vector":
            # Imported lazily: the vector kernel imports core modules.
            from repro.kernel.vector import simulate_vector, unsupported_reason

            reason = unsupported_reason(self.config, obs)
            if reason is None:
                return simulate_vector(trace, self.config)
            result = self._run_batched(trace, obs)
            result.extra["kernel"] = "batched"
            result.extra["kernel_requested"] = "vector"
            result.extra["kernel_fallback_reason"] = reason
            return result
        result = self._run_batched(trace, obs)
        if kernel is not None:
            result.extra["kernel"] = kernel
        return result

    def _run_batched(self, trace: Trace, obs) -> SimulationResult:
        config = self.config
        plan = config.fault_plan
        # A plan with every rate zero and no power-loss schedule is treated
        # exactly like no plan at all: no injector, no extra stats keys, and
        # bit-identical results (the documented strict no-op guarantee).
        injector = FaultInjector(plan) if plan is not None and plan.enabled else None
        ops = compile_trace(trace)
        stack = build_hierarchy(
            config, trace.block_size, max(1, ops.dataset_blocks),
            injector=injector,
        )
        return self._execute(trace, ops, stack, injector, obs)

    def _execute(
        self,
        trace: Trace,
        ops: CompiledOps,
        stack: LayerStack,
        injector: FaultInjector | None = None,
        obs=None,
    ) -> SimulationResult:
        """Drive the compiled ``ops`` through ``stack`` and measure the run.

        The warm-up range and the measured range each go through one
        :meth:`~repro.core.layers.LayerStack.run_batch` call.
        """
        n_ops = ops.n_ops
        warm_count = int(n_ops * self.config.warm_fraction)

        collector = MetricsCollector(measuring=warm_count == 0)
        stack.hooks.on_complete(collector.observe)
        if injector is not None:
            # Fire every scheduled power loss that precedes a request.  The
            # subscription lives here, not in the stack, so that direct
            # stack use (tests, tools) never fires losses implicitly.
            stack.hooks.on_submit(
                lambda request: stack.fire_pending_power_losses(request.time)
            )
        if obs is not None:
            # Attach the tracer/metrics session after the collector so its
            # on_complete handler observes the same recycled Response, and
            # before run_batch so the compiled emitters include it.
            obs.begin_run(stack, trace.name)

        if warm_count > 0:
            stack.run_batch(ops, 0, min(warm_count, n_ops))
            if warm_count < n_ops:
                stack.reset_accounting()
                collector.reset()
            if obs is not None:
                obs.warm_boundary()
        if warm_count < n_ops:
            stack.run_batch(ops, warm_count, n_ops)

        if injector is not None:
            # Power losses scheduled after the last request still happen.
            stack.fire_pending_power_losses(float("inf"))

        end_time = max(trace.duration, stack.latest_time())
        stack.finalize(end_time)
        if warm_count < n_ops:
            # float(): a NumPy scalar must not reach the result's fields.
            measured_start = float(ops.time[warm_count])
        else:
            # The whole trace was warm-up: the measurement window is empty,
            # so its duration must be zero (not end-to-end wall time).
            measured_start = end_time
        duration = max(0.0, end_time - measured_start)
        result = self._result(trace, stack, collector, duration)
        if obs is not None:
            obs.end_run(result)
        return result

    def _result(
        self,
        trace: Trace,
        stack: LayerStack,
        collector: MetricsCollector,
        duration: float,
    ) -> SimulationResult:
        device = stack.device
        wear = device.wear(duration) if isinstance(device, FlashCard) else None
        dram_hit_rate = stack.dram.hit_rate if stack.dram is not None else None

        return SimulationResult(
            trace_name=trace.name,
            device_name=device.name,
            config=self.config,
            duration_s=duration,
            energy_j=stack.total_energy_j,
            energy_breakdown=stack.energy_breakdown(),
            read_response=collector.read.snapshot(),
            write_response=collector.write.snapshot(),
            overall_response=collector.overall.snapshot(),
            n_reads=collector.read.count,
            n_writes=collector.write.count,
            n_deletes=collector.n_deletes,
            device_stats=device.stats(),
            dram_hit_rate=dram_hit_rate,
            wear=wear,
            reliability=stack.reliability_snapshot(),
            layer_breakdown=_layer_breakdown(stack, collector),
        )


def _layer_breakdown(
    stack: LayerStack, collector: MetricsCollector
) -> dict[str, dict[str, float]]:
    """Per-layer ``{latency_s, energy_j}`` over the measurement window.

    Latency comes from the per-request attribution sums; energy comes from
    the layers' energy meters (so standby/idle energy between requests is
    included and the components sum to the run total).
    """
    energies = stack.layer_energy()
    latencies = collector.layer_latency_s
    names = [layer.name for layer in stack.layers]
    if CLEANING_LAYER in energies or CLEANING_LAYER in latencies:
        names.append(CLEANING_LAYER)
    return {
        name: {
            "latency_s": latencies.get(name, 0.0),
            "energy_j": energies.get(name, 0.0),
        }
        for name in names
    }


def simulate(
    trace: Trace,
    config: SimulationConfig | None = None,
    *,
    obs=None,
    kernel: str | None = None,
) -> SimulationResult:
    """Convenience wrapper: simulate ``trace`` under ``config``."""
    return Simulator(config).run(trace, obs=obs, kernel=kernel)
