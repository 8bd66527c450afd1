"""In-memory spans around calls into the program's layers.

The benchmark measures layers without editing ``src/``: it wraps public
functions and methods at run time and records one span per call (name,
duration, time spent in wrapped children).  Spans stay in memory until the
run ends, when :func:`layer_metrics` folds them into the per-layer table.

A module-level function is rebound in *every* loaded module that holds it,
because ``from repro.traces.compiled import compile_trace`` copies the
binding into the importing module; patching only the defining module would
leave those callers untimed.  A binding the rebinding cannot reach (a
closure, a hoisted bound method) shows up as a wrapped name with zero
calls, which the traced run reports as a failure.
"""

from __future__ import annotations

import functools
import importlib
import os
import re
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable

#: Why the vector kernel declines a configuration, as metric-name slugs.
#: ``repro.kernel.vector.unsupported_reason`` builds a few reasons from
#: config values (``cleaning policy 'cost-benefit'``); the slug keeps only
#: the text before the first quote so the metric set stays fixed.
FALLBACK_SLUGS = (
    "observability_session_active",
    "fault_injection_configured",
    "write_back_dram_cache",
    "eviction_policy",
    "flash_backed_disk_cache",
    "queueing_inclusive_response_times",
    "decoupled_async_flash_disk_erasure",
    "sram_buffer_on_flash",
    "cleaning_policy",
    "unsupported_device_spec",
    "other",
)

#: Every per-layer metric the traced run prints, with its unit.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("traces.generate_s", "s"),
    ("traces.generate_calls", "count"),
    ("traces.records_generated", "count"),
    ("traces.compile_s", "s"),
    ("traces.compiled_ops", "count"),
    ("kernel.dram_classify_s", "s"),
    ("kernel.disk_s", "s"),
    ("kernel.flashdisk_s", "s"),
    ("kernel.flashcard_s", "s"),
    ("kernel.assemble_s", "s"),
    ("kernel.vector_sims", "count"),
    ("kernel.fallbacks", "count"),
    *((f"kernel.fallbacks.{slug}", "count") for slug in FALLBACK_SLUGS),
    ("kernel.fallback_ratio", "ratio"),
    ("core.simulate_s", "s"),
    ("core.simulations", "count"),
    ("core.build_hierarchy_s", "s"),
    ("core.run_batch_s", "s"),
    ("engine.execute_s", "s"),
    ("engine.unit_wall_s", "s"),
    ("engine.overhead_s", "s"),
    ("engine.cache_hits", "count"),
    ("engine.result_cache.put_s", "s"),
    ("engine.result_cache.get_s", "s"),
    ("engine.replay_s", "s"),
    ("engine.trace_store.save_s", "s"),
    ("engine.trace_store.load_s", "s"),
    ("engine.trace_store.prewarm_s", "s"),
    ("engine.trace_store.prewarm_used_ratio", "ratio"),
    ("engine.manifest_records", "count"),
    ("fleet.sample_s", "s"),
    ("fleet.simulate_device_s", "s"),
    ("fleet.synth_s", "s"),
    ("fleet.aggregate_s", "s"),
    ("obs.export_s", "s"),
    ("obs.trace_mb", "MB"),
    ("obs.events_dropped", "count"),
    ("serve.queue_wait_s", "s"),
    ("serve.run_s", "s"),
    ("serve.http_s", "s"),
    ("serve.rejected", "count"),
    ("trace_overhead_ratio", "ratio"),
)


def fallback_slug(reason: str) -> str:
    """The metric-name slug of a vector-kernel fallback reason."""
    head = reason.split("'", 1)[0]
    slug = re.sub(r"[^a-z0-9]+", "_", head.lower()).strip("_")
    return slug if slug in FALLBACK_SLUGS else "other"


class Recorder:
    """Collects spans and counters from wrapped calls, in memory."""

    def __init__(self) -> None:
        #: (span name, seconds, seconds minus wrapped children, nested)
        self.spans: list[tuple[str, float, float, bool]] = []
        self.counts: Counter[str] = Counter()
        #: named sets of keys (trace requests, prewarmed traces)
        self.keys: defaultdict[str, set] = defaultdict(set)
        self.wrapped: set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[Callable[[], None]] = []

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(frame[0] == name for frame in self._stack())

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def _wrapper(self, original: Callable, name: str, observe, before):
        recorder = self
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            token = before(args, kwargs) if before is not None else None
            nested = any(frame[0] == name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                recorder.spans.append((name, elapsed, elapsed - frame[1], nested))
            if observe is not None:
                observe(recorder, args, kwargs, result, elapsed, token)
            return result

        return wrapper

    def wrap_method(self, cls: type, attr: str, name: str,
                    observe=None, before=None) -> None:
        """Time every call of ``cls.attr`` as span ``name``."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrapper(original, name, observe, before))
        self._undo.append(lambda: setattr(cls, attr, original))
        self.wrapped.add(name)

    def wrap_function(self, module_name: str, attr: str, name: str,
                      observe=None, before=None) -> None:
        """Time every call of ``module.attr`` as span ``name``, rebinding
        it in each loaded module that imported it by name."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = self._wrapper(original, name, observe, before)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append(
                        lambda module=module, key=key: setattr(module, key, original)
                    )
        self.wrapped.add(name)

    def uninstall(self) -> None:
        """Restore every wrapped binding."""
        while self._undo:
            self._undo.pop()()

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``{span: (calls, seconds, self seconds)}``; a call nested inside
        a call of the same span adds to the count but not the seconds."""
        folded: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for name, elapsed, own, nested in self.spans:
            entry = folded[name]
            entry[0] += 1
            if not nested:
                entry[1] += elapsed
            entry[2] += own
        return {name: tuple(entry) for name, entry in folded.items()}


# -- what gets wrapped -------------------------------------------------------

def _records(recorder, args, kwargs, trace, elapsed, token) -> None:
    recorder.count("traces.records_generated", len(trace))


def _compile_fresh(args, kwargs) -> bool:
    from repro.traces import compiled

    return getattr(args[0], compiled._CACHE_ATTR, None) is None


def _compiled(recorder, args, kwargs, result, elapsed, fresh) -> None:
    if fresh:
        recorder.count("traces.compiled_ops", result.n_ops)


def _simulated(recorder, args, kwargs, result, elapsed, token) -> None:
    reason = result.extra.get("kernel_fallback_reason")
    if reason is not None:
        recorder.count("kernel.fallbacks")
        recorder.count(f"kernel.fallbacks.{fallback_slug(reason)}")


def _executed(recorder, args, kwargs, outcomes, elapsed, token) -> None:
    from repro.engine import resolve_jobs

    misses = [outcome for outcome in outcomes if outcome.cache != "hit"]
    unit_wall = sum(outcome.wall_s for outcome in misses)
    workers = max(1, min(resolve_jobs(kwargs.get("jobs")), len(misses)))
    recorder.count("engine.unit_wall_s", unit_wall)
    recorder.count("engine.overhead_s", elapsed - unit_wall / workers)
    recorder.count("engine.cache_hits", len(outcomes) - len(misses))


def _trace_key(args, kwargs) -> tuple[str, float, int]:
    from repro.experiments import traces_cache

    name = args[0]
    scale = args[1] if len(args) > 1 else kwargs.get("scale", 1.0)
    seed = args[2] if len(args) > 2 else kwargs.get("seed")
    return name, scale, traces_cache.default_seed() if seed is None else seed


def _trace_requested(recorder, args, kwargs, trace, elapsed, token) -> None:
    if not recorder.active("engine.trace_store.prewarm"):
        recorder.keys["used"].add(_trace_key(args, kwargs))


def _trace_loaded(recorder, args, kwargs, trace, elapsed, token) -> None:
    # args = (store, name, scale, seed); a load outside prewarm is a use.
    if trace is not None and not recorder.active("engine.trace_store.prewarm"):
        recorder.keys["used"].add(tuple(args[1:4]))


def _prewarmed(recorder, args, kwargs, generated, elapsed, token) -> None:
    _store, names, scale, seed = args
    recorder.keys["prewarmed"].update((name, scale, seed) for name in names)


def _chrome_written(recorder, args, kwargs, path, elapsed, token) -> None:
    recorder.count("obs.trace_mb", os.path.getsize(path) / 1e6)
    recorder.count("obs.events_dropped", args[0].dropped)


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the per-layer table reads."""
    from repro.core.layers import LayerStack
    from repro.core.simulator import Simulator
    from repro.engine import ResultCache, RunManifest, TraceStore
    from repro.kernel.disk_kernel import DiskKernel
    from repro.kernel.flashcard_kernel import CardKernel
    from repro.obs.events import EventTracer
    from repro.obs.session import ObservabilitySession
    from repro.traces.synthetic import SyntheticWorkload
    from repro.traces.workloads import WorkloadSpec

    for module in ("repro.kernel.vector", "repro.fleet.synth",
                   "repro.fleet.runner", "repro.serve.jobs",
                   "repro.experiments.registry"):
        importlib.import_module(module)  # so rebinding reaches importers

    method = recorder.wrap_method
    function = recorder.wrap_function
    # traces
    method(WorkloadSpec, "generate", "traces.generate", observe=_records)
    method(SyntheticWorkload, "generate", "traces.generate", observe=_records)
    function("repro.traces.compiled", "compile_trace", "traces.compile",
             observe=_compiled, before=_compile_fresh)
    function("repro.experiments.traces_cache", "trace_for", "traces.trace_for",
             observe=_trace_requested)
    # kernel
    function("repro.kernel.dram", "classify", "kernel.dram_classify")
    method(DiskKernel, "run", "kernel.disk")
    function("repro.kernel.flashdisk_kernel", "run_flashdisk", "kernel.flashdisk")
    method(CardKernel, "run", "kernel.flashcard")
    function("repro.kernel.vector", "simulate_vector", "kernel.simulate_vector")
    # core
    method(Simulator, "run", "core.simulate", observe=_simulated)
    function("repro.core.hierarchy", "build_hierarchy", "core.build_hierarchy")
    method(LayerStack, "run_batch", "core.run_batch")
    # engine
    function("repro.engine.scheduler", "execute", "engine.execute",
             observe=_executed)
    method(ResultCache, "get", "engine.result_cache.get")
    method(ResultCache, "put", "engine.result_cache.put")
    method(TraceStore, "save", "engine.trace_store.save")
    method(TraceStore, "load", "engine.trace_store.load", observe=_trace_loaded)
    method(TraceStore, "prewarm", "engine.trace_store.prewarm",
           observe=_prewarmed)
    for attr in ("record_run", "record_unit", "record_event"):
        method(RunManifest, attr, "engine.manifest")
    # fleet
    function("repro.fleet.population", "sample_devices", "fleet.sample")
    function("repro.fleet.synth", "sample_device_batch", "fleet.sample")
    function("repro.fleet.population", "simulate_device", "fleet.simulate_device")
    function("repro.fleet.synth", "simulate_shard_fast", "fleet.synth")
    for attr in ("aggregate_rows", "population_summary",
                 "population_summary_from_columns"):
        function("repro.fleet.aggregate", attr, "fleet.aggregate")
    # obs
    method(EventTracer, "write_chrome", "obs.export", observe=_chrome_written)
    method(ObservabilitySession, "to_json_dict", "obs.export")


def layer_metrics(recorder: Recorder, extra: dict[str, float]) -> dict[str, float]:
    """The per-layer table, from the recorder plus workload-side values
    (``engine.replay_s``, ``serve.*``, ``trace_overhead_ratio``)."""
    totals = recorder.totals()
    counts = recorder.counts

    def seconds(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    vector = calls("kernel.simulate_vector")
    fallbacks = counts["kernel.fallbacks"]
    prewarmed = recorder.keys["prewarmed"]
    values = {
        "traces.generate_s": seconds("traces.generate"),
        "traces.generate_calls": calls("traces.generate"),
        "traces.records_generated": counts["traces.records_generated"],
        "traces.compile_s": seconds("traces.compile"),
        "traces.compiled_ops": counts["traces.compiled_ops"],
        "kernel.dram_classify_s": seconds("kernel.dram_classify"),
        "kernel.disk_s": seconds("kernel.disk"),
        "kernel.flashdisk_s": seconds("kernel.flashdisk"),
        "kernel.flashcard_s": seconds("kernel.flashcard"),
        "kernel.assemble_s": totals.get("kernel.simulate_vector", (0, 0.0, 0.0))[2],
        "kernel.vector_sims": vector,
        "kernel.fallbacks": fallbacks,
        "kernel.fallback_ratio": (
            fallbacks / (vector + fallbacks) if vector + fallbacks else 0.0
        ),
        "core.simulate_s": seconds("core.simulate"),
        "core.simulations": calls("core.simulate"),
        "core.build_hierarchy_s": seconds("core.build_hierarchy"),
        "core.run_batch_s": seconds("core.run_batch"),
        "engine.execute_s": seconds("engine.execute"),
        "engine.unit_wall_s": counts["engine.unit_wall_s"],
        "engine.overhead_s": counts["engine.overhead_s"],
        "engine.cache_hits": counts["engine.cache_hits"],
        "engine.result_cache.put_s": seconds("engine.result_cache.put"),
        "engine.result_cache.get_s": seconds("engine.result_cache.get"),
        "engine.trace_store.save_s": seconds("engine.trace_store.save"),
        "engine.trace_store.load_s": seconds("engine.trace_store.load"),
        "engine.trace_store.prewarm_s": seconds("engine.trace_store.prewarm"),
        "engine.trace_store.prewarm_used_ratio": (
            len(prewarmed & recorder.keys["used"]) / len(prewarmed)
            if prewarmed else 0.0
        ),
        "engine.manifest_records": calls("engine.manifest"),
        "fleet.sample_s": seconds("fleet.sample"),
        "fleet.simulate_device_s": seconds("fleet.simulate_device"),
        "fleet.synth_s": seconds("fleet.synth"),
        "fleet.aggregate_s": seconds("fleet.aggregate"),
        "obs.export_s": seconds("obs.export"),
        "obs.trace_mb": counts["obs.trace_mb"],
        "obs.events_dropped": counts["obs.events_dropped"],
    }
    for slug in FALLBACK_SLUGS:
        values[f"kernel.fallbacks.{slug}"] = counts[f"kernel.fallbacks.{slug}"]
    for name, _unit in LAYER_METRICS:
        values.setdefault(name, 0.0)
    values.update(extra)
    return {name: values[name] for name, _unit in LAYER_METRICS}


class SimTally:
    """Counts simulations and simulated block operations with tracing off.

    One counter at ``Simulator.run`` — no spans, no timing.  The counters
    live in shared memory, so pool workers forked by the engine add to the
    same totals.  ``compile_trace(trace).n_ops`` equals ``len(trace)``
    (one block operation per record), which avoids compiling here.
    """

    def __init__(self) -> None:
        import multiprocessing

        self.simulations = multiprocessing.Value("q", 0)
        self.ops = multiprocessing.Value("q", 0)
        self._restore: Callable[[], None] | None = None

    def install(self) -> None:
        from repro.core.simulator import Simulator

        original = Simulator.__dict__["run"]
        simulations, ops = self.simulations, self.ops

        @functools.wraps(original)
        def run(self_, trace, *args, **kwargs):
            result = original(self_, trace, *args, **kwargs)
            with simulations.get_lock():
                simulations.value += 1
                ops.value += len(trace)
            return result

        Simulator.run = run
        self._restore = lambda: setattr(Simulator, "run", original)

    def uninstall(self) -> None:
        if self._restore is not None:
            self._restore()
            self._restore = None

    def read(self) -> tuple[int, int]:
        return self.simulations.value, self.ops.value
