"""The parallel, cache-aware execution engine (repro.engine)."""

from __future__ import annotations

import copyreg
import gzip
import io
import json
import pickle

import pytest

from repro.engine import (
    EngineError,
    ResultCache,
    RunManifest,
    TraceStore,
    WorkUnit,
    cache_key,
    decompose,
    device_fingerprint,
    execute,
    freeze_kwargs,
    raise_on_errors,
    read_manifest,
    run_unit_inline,
    summarize,
)
from repro.engine.manifest import UNIT_FIELDS
from repro.engine.trace_store import TRACE_FORMAT
from repro.errors import ConfigurationError, TraceError
from repro.experiments import traces_cache
from repro.experiments.base import Experiment, ExperimentResult, Table
from repro.experiments.registry import _EXPERIMENTS
from repro.experiments.runner import run_experiment
from repro.fleet import FleetSpec, run_fleet
from repro.kernel.dram import classify
from repro.traces.compiled import compile_trace
from repro.traces.trace import Trace

#: cheap drivers for end-to-end scheduling tests (table2 is static,
#: fig4 simulates the short dos trace)
FAST_IDS = ("table2", "fig4")
SMALL = 0.05


# -- work units ------------------------------------------------------------

class TestWorkUnit:
    def test_decompose_cross_product(self):
        units = decompose(["a", "b"], scale=0.5, seeds=(1, 2, 3))
        assert len(units) == 6
        assert {unit.experiment_id for unit in units} == {"a", "b"}
        assert {unit.seed for unit in units} == {1, 2, 3}

    def test_decompose_deduplicates(self):
        units = decompose(["a", "a"], scale=0.5, seeds=(1, 1))
        assert len(units) == 1

    def test_decompose_empty_seeds_means_default(self):
        units = decompose(["a"], scale=0.5, seeds=())
        assert [unit.seed for unit in units] == [None]

    def test_scale_validated(self):
        with pytest.raises(ConfigurationError):
            WorkUnit("a", scale=0.0)
        with pytest.raises(ConfigurationError):
            WorkUnit("a", scale=1.5)

    def test_freeze_kwargs_sorts_and_hashes(self):
        frozen = freeze_kwargs({"b": [1, 2], "a": "x"})
        assert frozen == (("a", "x"), ("b", (1, 2)))
        hash(frozen)  # must be hashable

    def test_label_names_the_unit(self):
        unit = WorkUnit("table4", scale=0.2, seed=7)
        assert "table4" in unit.label
        assert "seed=7" in unit.label


# -- cache keys ------------------------------------------------------------

class TestCacheKey:
    def test_stable_for_identical_units(self):
        a = WorkUnit("table4", scale=0.2, seed=1)
        b = WorkUnit("table4", scale=0.2, seed=1)
        assert cache_key(a) == cache_key(b)

    @pytest.mark.parametrize("variant", [
        WorkUnit("table4", scale=0.3, seed=1),
        WorkUnit("table4", scale=0.2, seed=2),
        WorkUnit("table4", scale=0.2, seed=None),
        WorkUnit("fig2", scale=0.2, seed=1),
        WorkUnit("table4", scale=0.2, seed=1,
                 kwargs=freeze_kwargs({"traces": ("mac",)})),
    ])
    def test_changes_on_any_input(self, variant):
        base = WorkUnit("table4", scale=0.2, seed=1)
        assert cache_key(base) != cache_key(variant)

    def test_changes_on_fingerprint_and_version(self):
        unit = WorkUnit("table4", scale=0.2, seed=1)
        base = cache_key(unit)
        assert cache_key(unit, fingerprint="different") != base
        assert cache_key(unit, version="99.0") != base

    def test_device_fingerprint_is_short_stable_hex(self):
        assert device_fingerprint() == device_fingerprint()
        int(device_fingerprint(), 16)


# -- result cache ----------------------------------------------------------

@pytest.fixture
def sample_result() -> ExperimentResult:
    return ExperimentResult(
        experiment_id="demo",
        title="Demo",
        tables=(
            Table("t", ("k", "v"), (("one", 1), ("two", 2.5), ("big", 10_000.0))),
        ),
        notes=("note one",),
        charts=("<chart>",),
        scale=0.25,
    )


class TestResultCache:
    def test_round_trip_renders_identically(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path)
        cache.put("ab" + "0" * 62, sample_result)
        loaded = cache.get("ab" + "0" * 62)
        assert loaded is not None
        assert loaded.render() == sample_result.render()
        assert loaded == sample_result

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get("ff" + "0" * 62) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path)
        path = cache.put("ab" + "0" * 62, sample_result)
        path.write_text("{not json")
        assert cache.get("ab" + "0" * 62) is None

    def test_stats_and_clear(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path)
        cache.put("ab" + "0" * 62, sample_result)
        cache.put("cd" + "0" * 62, sample_result)
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.total_bytes > 0
        assert stats.experiments == {"demo": 2}
        assert "entries" in stats.render()
        assert cache.clear() == 2
        assert cache.stats().entries == 0


# -- trace store -----------------------------------------------------------

def _pre_columnar_pickle(trace: Trace) -> bytes:
    """``trace`` pickled as traces were before they were columnar: the
    ``Trace`` class, then an instance dict holding the record list."""
    state = {
        "name": trace.name, "block_size": trace.block_size,
        "metadata": dict(trace.metadata), "_records": list(trace.records),
        "_distinct_bytes": None,
    }
    old = object.__new__(Trace)

    class Pickler(pickle.Pickler):
        def reducer_override(self, obj):
            if obj is old:
                return copyreg.__newobj__, (Trace,), state
            return NotImplemented

    buffer = io.BytesIO()
    Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(old)
    return buffer.getvalue()


class TestTraceStore:
    def test_round_trip(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = traces_cache.trace_for("synth", SMALL)
        store.save(trace, "synth", SMALL, 1)
        loaded = store.load("synth", SMALL, 1)
        assert loaded is not None
        assert loaded.name == trace.name
        assert loaded.block_size == trace.block_size
        assert loaded.records == trace.records

    def test_missing_is_none(self, tmp_path):
        assert TraceStore(tmp_path).load("synth", 0.5, 9) is None

    def test_entry_is_the_columns_alone(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = traces_cache.trace_for("dos", SMALL)
        fresh = pickle.dumps(Trace.from_columns(
            trace.name, *trace.columns, block_size=trace.block_size,
            metadata=trace.metadata,
        ), protocol=pickle.HIGHEST_PROTOCOL)
        classify(trace, compile_trace(trace), 64)
        path = store.save(trace, "dos", SMALL, 1)
        assert path.name.endswith(f".{TRACE_FORMAT}.pkl.gz")
        with gzip.open(path, "rb") as stream:
            assert stream.read() == fresh
        loaded = store.load("dos", SMALL, 1)
        assert not hasattr(loaded, "_compiled_ops")
        assert [c.tolist() for c in loaded.columns] == [c.tolist() for c in trace.columns]
        assert loaded.metadata == trace.metadata

    def test_pre_columnar_entry_is_a_miss_at_old_and_new_path(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = traces_cache.trace_for("synth", SMALL)
        old_format = _pre_columnar_pickle(trace)
        with pytest.raises(TraceError, match="no columns"):
            pickle.loads(old_format)
        old_path = store.root / "traces" / f"synth-s{float(SMALL)!r}-r1.pkl.gz"
        new_path = store.path_for("synth", SMALL, 1)
        for path in (old_path, new_path):
            path.parent.mkdir(parents=True, exist_ok=True)
            with gzip.open(path, "wb") as stream:
                stream.write(old_format)
            assert store.load("synth", SMALL, 1) is None
        assert old_path.exists()  # another format's name: never read
        assert not new_path.exists()  # read, rejected and quarantined
        assert (store.quarantine_dir / new_path.name).exists()
        assert store.prewarm(("synth",), SMALL, 1) == 1
        assert store.load("synth", SMALL, 1).records == trace.records

    def test_prewarm_generates_once(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.prewarm(("synth",), SMALL, 1) == 1
        assert store.prewarm(("synth",), SMALL, 1) == 0

    def test_configured_store_is_write_through(self, tmp_path):
        store = TraceStore(tmp_path)
        traces_cache.configure_trace_store(store)
        try:
            traces_cache._generate.cache_clear()
            trace = traces_cache.trace_for("synth", 0.031, seed=77)
            assert store.path_for("synth", 0.031, 77).exists()
            # A fresh process (simulated by clearing the in-memory cache)
            # loads the stored trace instead of regenerating.
            traces_cache._generate.cache_clear()
            reloaded = traces_cache.trace_for("synth", 0.031, seed=77)
            assert reloaded.records == trace.records
        finally:
            traces_cache.configure_trace_store(None)
            traces_cache._generate.cache_clear()

    def test_scales_equal_to_six_digits_do_not_collide(self, tmp_path):
        # 0.1242236 and 0.1242244 print alike under :g but ask for 19999
        # and 20000 mac ops; the second must not load the first's trace.
        store = TraceStore(tmp_path)
        traces_cache.configure_trace_store(store)
        try:
            lengths = []
            for scale in (0.1242236, 0.1242244):
                traces_cache._generate.cache_clear()
                lengths.append(len(traces_cache.trace_for("mac", scale, seed=1)))
        finally:
            traces_cache.configure_trace_store(None)
            traces_cache._generate.cache_clear()
        assert lengths == [19999, 20000]
        assert len(list(store.root.glob("traces/mac-*"))) == 2


class TestDeclaredPrewarm:
    """execute() prewarms only the traces the pending units declare."""

    def test_fleet_writes_nothing_to_the_store(self, tmp_path):
        store = TraceStore(tmp_path)
        spec = FleetSpec(devices=4, seed=1, scale=0.05, ops_per_device=100)
        run = run_fleet(spec, jobs=1, trace_store=store)
        assert run.summary is not None
        assert not (store.root / "traces").exists()

    def test_stores_only_the_declared_trace(self, tmp_path):
        store = TraceStore(tmp_path)
        outcomes = execute(decompose(["fig4"], scale=SMALL, seeds=(5,)),
                           jobs=1, trace_store=store)
        raise_on_errors(outcomes)
        stored = [path.name for path in (store.root / "traces").iterdir()]
        assert stored == [store.path_for("dos", SMALL, 5).name]


# -- manifest --------------------------------------------------------------

class TestManifest:
    def test_schema(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with RunManifest(path) as manifest:
            manifest.record_run(jobs=2, units=1, scale=0.2, seeds=(None,),
                                fingerprint="f", version="v", cache_dir=None)
            manifest.record_unit(
                WorkUnit("table2", scale=0.2), key="k", cache="miss",
                worker=123, wall_s=0.5, outcome="ok",
            )
        records = read_manifest(path)
        assert [record["record"] for record in records] == ["run", "unit"]
        run_record = records[0]
        for field in ("jobs", "units", "scale", "seeds", "fingerprint",
                      "version", "cache_dir", "started"):
            assert field in run_record
        unit_record = records[1]
        assert set(UNIT_FIELDS) <= set(unit_record)
        assert unit_record["experiment_id"] == "table2"
        assert unit_record["cache"] == "miss"
        assert unit_record["outcome"] == "ok"

    def test_appends_as_units_finish(self, tmp_path):
        path = tmp_path / "m.jsonl"
        manifest = RunManifest(path)
        manifest.record_unit(WorkUnit("a", scale=0.2), key="k", cache="off",
                             worker=1, wall_s=0.0, outcome="ok")
        # readable mid-run, before close
        assert len(read_manifest(path)) == 1
        manifest.close()


# -- scheduler -------------------------------------------------------------

class TestExecute:
    def test_serial_and_parallel_reports_identical(self, tmp_path):
        units = decompose(FAST_IDS, scale=SMALL)
        serial = execute(units, jobs=1)
        parallel = execute(units, jobs=2, trace_store=TraceStore(tmp_path))
        assert [outcome.unit for outcome in serial] == units
        for left, right in zip(serial, parallel):
            assert left.result.render() == right.result.render()

    def test_jobs_one_matches_run_experiment_exactly(self):
        unit = WorkUnit("fig4", scale=SMALL)
        [outcome] = execute([unit], jobs=1)
        direct = run_experiment("fig4", scale=SMALL)
        assert outcome.result.render() == direct.render()

    def test_cache_hits_on_second_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        units = decompose(FAST_IDS, scale=SMALL)
        first = execute(units, jobs=1, cache=cache)
        second = execute(units, jobs=1, cache=cache)
        assert summarize(first)["misses"] == len(units)
        assert summarize(second)["hits"] == len(units)
        for left, right in zip(first, second):
            assert left.result.render() == right.result.render()

    def test_key_changes_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        execute([WorkUnit("table2", scale=SMALL)], jobs=1, cache=cache)
        rescaled = execute([WorkUnit("table2", scale=0.06)], jobs=1, cache=cache)
        reseeded = execute([WorkUnit("table2", scale=SMALL, seed=9)],
                           jobs=1, cache=cache)
        assert summarize(rescaled)["misses"] == 1
        assert summarize(reseeded)["misses"] == 1

    def test_manifest_records_hits_and_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        units = decompose(("table2",), scale=SMALL)
        with RunManifest(tmp_path / "m.jsonl") as manifest:
            execute(units, jobs=1, cache=cache, manifest=manifest)
            execute(units, jobs=1, cache=cache, manifest=manifest)
        unit_records = [record for record in read_manifest(tmp_path / "m.jsonl")
                        if record["record"] == "unit"]
        assert [record["cache"] for record in unit_records] == ["miss", "hit"]

    def test_progress_callback_sees_every_unit(self):
        seen = []
        units = decompose(("table2",), scale=SMALL, seeds=(1, 2))
        execute(units, jobs=1,
                progress=lambda done, total, outcome:
                seen.append((done, total, outcome.unit.seed)))
        assert seen == [(1, 2, 1), (2, 2, 2)]

    def test_invalid_jobs_rejected(self):
        with pytest.raises(EngineError):
            execute([], jobs=0)

    def test_empty_units(self):
        assert execute([], jobs=1) == []


class TestFailureContainment:
    @pytest.fixture
    def broken_driver(self, monkeypatch):
        def explode(scale=1.0, seed=None):
            raise RuntimeError("injected driver failure")

        experiment = Experiment(
            experiment_id="broken", title="Broken", paper_ref="-", run=explode,
        )
        monkeypatch.setitem(_EXPERIMENTS, "broken", experiment)
        return experiment

    def test_error_is_contained_and_others_complete(self, tmp_path, broken_driver):
        cache = ResultCache(tmp_path)
        units = [WorkUnit("broken", scale=SMALL), WorkUnit("table2", scale=SMALL)]
        outcomes = execute(units, jobs=1, cache=cache)
        assert not outcomes[0].ok
        assert "injected driver failure" in outcomes[0].error
        assert outcomes[1].ok
        # the completed unit landed in the cache: a re-run resumes
        resumed = execute(units, jobs=1, cache=cache)
        assert summarize(resumed)["hits"] == 1

    def test_raise_on_errors(self, broken_driver):
        outcomes = execute([WorkUnit("broken", scale=SMALL)], jobs=1)
        with pytest.raises(EngineError, match="injected driver failure"):
            raise_on_errors(outcomes)

    def test_manifest_records_error(self, tmp_path, broken_driver):
        with RunManifest(tmp_path / "m.jsonl") as manifest:
            execute([WorkUnit("broken", scale=SMALL)], jobs=1, manifest=manifest)
        [unit_record] = [record for record in read_manifest(tmp_path / "m.jsonl")
                         if record["record"] == "unit"]
        assert unit_record["outcome"] == "error"
        assert "injected driver failure" in unit_record["error"]


class TestRunUnitInline:
    def test_threads_seed_and_kwargs(self, monkeypatch):
        calls = []

        def probe(scale=1.0, seed=None, traces=()):
            calls.append((scale, seed, traces))
            return ExperimentResult("probe", "Probe", tables=(
                Table("t", ("a",), ((1,),)),
            ))

        monkeypatch.setitem(_EXPERIMENTS, "probe", Experiment(
            experiment_id="probe", title="Probe", paper_ref="-", run=probe,
        ))
        unit = WorkUnit("probe", scale=0.5, seed=3,
                        kwargs=freeze_kwargs({"traces": ("mac",)}))
        run_unit_inline(unit)
        assert calls == [(0.5, 3, ("mac",))]


# -- seed plumbing (satellite) ---------------------------------------------

class TestSeedPlumbing:
    def test_run_experiment_threads_seed_without_global_mutation(self):
        before = traces_cache.default_seed()
        result = run_experiment("fig4", scale=SMALL, seed=9)
        assert traces_cache.default_seed() == before
        assert result.render() != run_experiment("fig4", scale=SMALL).render()

    def test_seeded_run_is_reproducible(self):
        first = run_experiment("fig4", scale=SMALL, seed=9).render()
        second = run_experiment("fig4", scale=SMALL, seed=9).render()
        assert first == second


# -- parallel end-to-end sanity via JSON (catches pickling regressions) ----

def test_outcome_payloads_are_json_representable(tmp_path):
    units = decompose(("table2",), scale=SMALL)
    with RunManifest(tmp_path / "m.jsonl") as manifest:
        execute(units, jobs=1, manifest=manifest)
    for line in (tmp_path / "m.jsonl").read_text().splitlines():
        json.loads(line)


def test_trace_store_roundtrip_preserves_simulation(tmp_path):
    """A stored-and-reloaded trace must drive the simulator to identical
    numbers (pickle round-trips float times exactly)."""
    from repro.core.config import SimulationConfig
    from repro.core.simulator import simulate

    store = TraceStore(tmp_path)
    trace = traces_cache.trace_for("synth", SMALL)
    store.save(trace, "synth", SMALL, 1)
    reloaded = store.load("synth", SMALL, 1)
    config = SimulationConfig(device="intel-datasheet")
    assert simulate(trace, config).energy_j == simulate(reloaded, config).energy_j
