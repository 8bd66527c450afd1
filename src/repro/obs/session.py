"""The ObservabilitySession: tracer + metrics wired onto one simulation.

A session owns one :class:`~repro.obs.events.EventTracer` and one
:class:`~repro.obs.metrics.MetricsRegistry` and attaches them to the
storage hierarchy (a :class:`~repro.core.layers.LayerStack`) for the
duration of a run:

* ``begin_run`` subscribes the session's ``on_complete``/``on_crash``
  handlers to the stack's hook bus, points the device's ``obs_sink`` at
  the tracer, and binds gauges to the live cache/buffer/device state;
* ``warm_boundary`` discards everything recorded during the warm-start
  prefix (the tracer rolls back to the run marker, the registry resets),
  mirroring the simulator's own accounting reset;
* ``end_run`` takes a final sample, fills the wear histogram from the
  flash card's segments, snapshots the registry into a per-run summary,
  and detaches every subscription.

The session is what :meth:`Simulator.run(..., obs=...)
<repro.core.simulator.Simulator.run>` accepts, and what
:mod:`repro.obs.runtime` installs process-globally so experiment drivers
pick it up without signature changes.

Agreement contract: the per-layer latency slices the session emits are
exactly the floats the :class:`~repro.core.metrics.MetricsCollector`
folds, accumulated in the same order — so ``layer_latency_s`` in a run
summary equals the latency column of ``SimulationResult.layer_breakdown``
bit for bit (layers the collector never saw report 0.0 on both sides).
:meth:`ObservabilitySession.attribution_problems` checks that for every
finished run, and that each run's layer components sum to its totals;
:meth:`ObservabilitySession.layer_tables` renders the per-layer
attribution.  ``repro run --observe`` runs both on every work unit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.request import LAYER_NAMES, RequestKind
from repro.obs.events import DEFAULT_CAPACITY, EventTracer
from repro.obs.metrics import MetricsRegistry, exponential_bounds

if TYPE_CHECKING:
    from repro.core.layers import LayerStack
    from repro.core.results import SimulationResult

_READ = RequestKind.READ
_DELETE = RequestKind.DELETE

#: Response-time buckets: 10 us .. ~5 s, geometric (covers DRAM hits
#: through disk spin-up waits).
RESPONSE_BOUNDS = exponential_bounds(1e-5, 2.0, 20)
#: Wear buckets: segment erase counts 1 .. 2048.
WEAR_BOUNDS = exponential_bounds(1.0, 2.0, 12)

#: How far a run's layer components may miss its totals.  Attribution
#: accumulates per request in a different order than the run totals, so
#: bit equality is not expected (float addition is not associative), but
#: anything beyond these would mean lost or double-counted work.
LATENCY_REL_TOL = 1e-6
ENERGY_REL_TOL = 1e-9

#: Device-sink event kind -> session counter name.
_DEVICE_COUNTERS = {
    "spin_up": "spin_ups_total",
    "spin_down": "spin_downs_total",
    "cleaning": "cleaning_stalls_total",
    "erase": "erases_total",
}


class ObservabilitySession:
    """One tracer + one registry, attachable to successive simulations.

    A session outlives individual runs: ``repro run --observe`` drives
    every simulation of a work unit through one session and exports a
    single artifact with one run marker (and one Chrome process track)
    per simulation.
    """

    def __init__(self, trace_capacity: int = DEFAULT_CAPACITY) -> None:
        self.tracer = EventTracer(trace_capacity)
        self.registry = MetricsRegistry()
        self.runs: list[dict[str, Any]] = []
        self._run_index = -1
        self._stack: LayerStack | None = None
        self._mark = 0
        self._label = ""
        self._layer_sums: dict[str, float] = {}
        self._last_hits = -1
        self._last_misses = -1

        registry = self.registry
        self._ops = registry.counter("ops_total", "measured operations completed")
        self._reads = registry.counter("reads_total", "measured read operations")
        self._writes = registry.counter("writes_total", "measured write operations")
        self._deletes = registry.counter("deletes_total", "measured delete operations")
        self._crashes = registry.counter("crashes_total", "power losses recovered")
        self._resp_hist = registry.histogram(
            "response_time_s", RESPONSE_BOUNDS, "foreground response times"
        )
        self._wear_hist = registry.histogram(
            "segment_wear_erases", WEAR_BOUNDS,
            "per-segment erase counts at end of run",
        )
        self._device_counters = {
            kind: registry.counter(name, f"device {kind} episodes")
            for kind, name in _DEVICE_COUNTERS.items()
        }

    # -- run lifecycle -----------------------------------------------------------

    def begin_run(self, stack: "LayerStack", label: str) -> int:
        """Attach to ``stack``; returns the new run's index."""
        if self._stack is not None:
            raise RuntimeError("a run is already active on this session")
        self._run_index += 1
        self._stack = stack
        self._label = label
        self._layer_sums = {}
        self._last_hits = -1
        self._last_misses = -1

        registry = self.registry
        registry.reset()
        self._bind_gauges(stack)

        stack.hooks.on_complete(self._on_complete)
        stack.hooks.on_crash(self._on_crash)
        stack.device.set_obs_sink(self._device_event)

        device = stack.device
        self.tracer.emit(
            "run", 0.0, 0.0, f"{label}|{device.name}", float(self._run_index)
        )
        self._mark = self.tracer.emitted
        return self._run_index

    def warm_boundary(self) -> None:
        """Discard everything recorded during the warm-start prefix."""
        self.tracer.rollback(self._mark)
        stack = self._stack
        self.registry.reset()
        if stack is not None:
            self._bind_gauges(stack)
        self._layer_sums = {}
        self._last_hits = -1
        self._last_misses = -1

    def end_run(self, result: "SimulationResult | None" = None) -> dict[str, Any]:
        """Detach from the stack and snapshot the run's metrics."""
        stack = self._stack
        if stack is None:
            raise RuntimeError("no active run to end")
        self._stack = None

        stack.hooks.off_complete(self._on_complete)
        stack.hooks.off_crash(self._on_crash)
        device = stack.device
        device.set_obs_sink(None)

        self._fill_wear_histogram(device)
        self.registry.force_sample(stack.latest_time())

        summary: dict[str, Any] = {
            "run": self._run_index,
            "trace": self._label,
            "device": device.name,
            "layer_latency_s": dict(self._layer_sums),
            "device_stats": device.stats(),
            "metrics": self.registry.to_json_dict(),
        }
        if result is not None:
            breakdown = result.layer_breakdown
            reported = {
                name: parts["latency_s"] for name, parts in breakdown.items()
            }
            overall = result.overall_response
            summary["layer_breakdown_latency_s"] = reported
            summary["layer_breakdown_energy_j"] = {
                name: parts["energy_j"] for name, parts in breakdown.items()
            }
            # The run totals the layer components must reproduce: summed
            # foreground response time over the measurement window, and
            # total energy.
            summary["totals"] = {
                "ops": overall.count,
                "latency_s": overall.mean_s * overall.count,
                "energy_j": result.energy_j,
            }
            summary["agreement_max_abs_diff"] = max(
                (
                    abs(reported.get(name, 0.0) - self._layer_sums.get(name, 0.0))
                    for name in set(reported) | set(self._layer_sums)
                ),
                default=0.0,
            )
        self.runs.append(summary)
        return summary

    # -- hot-path handlers -------------------------------------------------------

    def _on_complete(self, response) -> None:
        """``on_complete`` subscriber: one request span + its layer slices.

        Reads the recycled Response's layer-id arrays immediately (the
        batched driver reuses the object), accumulating per-layer latency
        in the collector's exact fold order.
        """
        request = response.request
        kind = request.kind
        emit = self.tracer.emit
        t0 = response.issued_at
        if kind is _DELETE:
            self._deletes.inc()
            self._ops.inc()
            emit("request", t0, 0.0, "delete")
            self.registry.maybe_sample(response.completed_at)
            return
        dur = response.completed_at - t0
        emit("request", t0, dur, kind.value)
        lat = response._lat
        en = response._en
        sums = self._layer_sums
        names = LAYER_NAMES
        for layer_id in response._touched:
            slice_s = lat[layer_id]
            name = names[layer_id]
            emit("layer", t0, slice_s, name, 0.0, en[layer_id])
            sums[name] = sums.get(name, 0.0) + slice_s
        self._ops.inc()
        if kind is _READ:
            self._reads.inc()
        else:
            self._writes.inc()
        self._resp_hist.observe(dur)
        dram = self._stack.dram if self._stack is not None else None
        if dram is not None:
            hits = dram.hits
            misses = dram.misses
            if hits != self._last_hits or misses != self._last_misses:
                emit("cache", response.completed_at, 0.0, "dram", hits, misses)
                self._last_hits = hits
                self._last_misses = misses
        self.registry.maybe_sample(response.completed_at)

    def _on_crash(self, at: float, recovered_at: float) -> None:
        self.tracer.emit("crash", at, recovered_at - at, "power-loss")
        self._crashes.inc()
        self.registry.force_sample(recovered_at)

    def _device_event(self, kind: str, t0: float, dur: float, name: str) -> None:
        """The device ``obs_sink``: spin/cleaning/erase episode spans."""
        self.tracer.emit(kind, t0, dur, name)
        counter = self._device_counters.get(kind)
        if counter is not None:
            counter.inc()

    # -- instrument binding ------------------------------------------------------

    def _bind_gauges(self, stack: "LayerStack") -> None:
        """(Re)bind gauges to the live objects of ``stack``.

        Gauges from a previous run are unbound first so a sample can never
        read a dead hierarchy's state.
        """
        from repro.obs.metrics import Gauge

        for instrument in self.registry._instruments.values():
            if isinstance(instrument, Gauge):
                instrument.fn = None

        registry = self.registry
        device = stack.device
        registry.gauge(
            "device_queue_s", "in-flight work queued on the device, seconds"
        ).fn = lambda: max(0.0, device.busy_until - device.clock)

        dram = stack.dram
        if dram is not None:
            registry.gauge(
                "dram_resident_blocks", "blocks resident in the DRAM cache"
            ).fn = lambda: dram.resident_blocks
            registry.gauge(
                "dram_hit_rate", "DRAM cache hit rate so far"
            ).fn = lambda: dram.hit_rate

        sram = stack.sram
        if sram is not None:
            registry.gauge(
                "sram_occupancy_blocks", "dirty blocks buffered in SRAM"
            ).fn = lambda: sram.dirty_count
            registry.gauge(
                "sram_occupancy", "SRAM write-buffer fill fraction"
            ).fn = lambda: sram.occupancy

        flash = getattr(device, "flash", device)
        segments = getattr(flash, "segments", None)
        if segments is not None:
            registry.gauge(
                "cleaning_backlog_segments",
                "segments holding data (not erased), awaiting reclamation",
            ).fn = lambda: len(flash.segments) - flash.erased_segment_count
        sector_map = getattr(device, "sector_map", None)
        if sector_map is not None:
            registry.gauge(
                "dirty_sectors", "flash-disk sectors awaiting background erase"
            ).fn = lambda: sector_map.dirty_sectors

        meter = stack.reliability
        if meter is not None:
            for name, read in meter.live_counters().items():
                registry.gauge(
                    f"faults_{name}", f"reliability counter {name}"
                ).fn = read

    def _fill_wear_histogram(self, device) -> None:
        flash = getattr(device, "flash", device)
        segments = getattr(flash, "segments", None)
        if segments is None:
            return
        observe = self._wear_hist.observe
        for segment in segments:
            observe(segment.erase_count)

    # -- checks and export --------------------------------------------------------

    def attribution_problems(self) -> list[str]:
        """One line per failed check over the finished runs; [] when all pass.

        A run fails when its layer slices differ from its
        ``layer_breakdown`` latencies at all (the agreement contract is
        exact), or when its layer components miss the run totals by more
        than :data:`LATENCY_REL_TOL` / :data:`ENERGY_REL_TOL`.
        """
        import math

        problems = []
        for run in self.runs:
            where = f"run {run['run']} ({run['trace']} on {run['device']})"
            diff = run["agreement_max_abs_diff"]
            if diff != 0.0:
                problems.append(f"{where}: layer slices differ from "
                                f"layer_breakdown (max |diff| {diff!r})")
            totals = run["totals"]
            latency = sum(run["layer_breakdown_latency_s"].values())
            energy = sum(run["layer_breakdown_energy_j"].values())
            if not (
                math.isclose(latency, totals["latency_s"],
                             rel_tol=LATENCY_REL_TOL, abs_tol=1e-9)
                and math.isclose(energy, totals["energy_j"],
                                 rel_tol=ENERGY_REL_TOL, abs_tol=1e-9)
            ):
                problems.append(
                    f"{where}: layer components do not sum to the run "
                    f"totals: latency {latency!r} vs {totals['latency_s']!r}, "
                    f"energy {energy!r} vs {totals['energy_j']!r}"
                )
        return problems

    def layer_tables(self) -> str:
        """Each finished run's latency and energy per layer, as text.

        One table per run (DRAM, SRAM, device, cleaning), with each
        layer's share of the run totals and a total row.
        """
        from repro.experiments.base import Table

        tables = []
        for run in self.runs:
            totals = run["totals"]
            energies = run["layer_breakdown_energy_j"]
            rows: list[tuple[Any, ...]] = [
                (name, round(latency, 6), _share(latency, totals["latency_s"]),
                 round(energies[name], 3),
                 _share(energies[name], totals["energy_j"]))
                for name, latency in run["layer_breakdown_latency_s"].items()
            ]
            rows.append(("total", round(totals["latency_s"], 6), "100%",
                         round(totals["energy_j"], 3), "100%"))
            tables.append(Table(
                title=(f"run {run['run']}: {run['trace']} on "
                       f"{run['device']}, {totals['ops']} measured ops"),
                headers=("layer", "latency s", "lat %", "energy J", "en %"),
                rows=tuple(rows),
            ).render())
        if not tables:
            return "no simulation ran\n"
        return "\n\n".join(tables) + "\n"

    def layer_latency_s(self) -> dict[str, float]:
        """The active (or most recent) run's per-layer latency sums."""
        return dict(self._layer_sums)

    def to_json_dict(self) -> dict[str, Any]:
        """All finished runs' summaries, JSON-ready."""
        return {
            "runs": self.runs,
            "trace_events_emitted": self.tracer.emitted,
            "trace_events_dropped": self.tracer.dropped,
        }


def _share(value: float, total: float) -> str:
    if total <= 0:
        return "-"
    return f"{100.0 * value / total:.1f}%"
