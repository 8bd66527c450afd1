"""Engine resilience: retry policy, durable cache, manifest v2, resume."""

from __future__ import annotations

import json
import os

import pytest

from repro.engine import (
    ExecutionPolicy,
    ResultCache,
    RunManifest,
    TraceStore,
    WorkUnit,
    decompose,
    execute,
    read_manifest,
    resume_spec,
    summarize,
)
from repro.engine.manifest import SCHEMA_VERSION, UNIT_FIELDS
from repro.engine.result_cache import result_checksum
from repro.errors import ConfigurationError
from repro.experiments import traces_cache
from repro.experiments.base import Experiment, ExperimentResult, Table
from repro.experiments.registry import _EXPERIMENTS
from repro.faults.retry import RetryPolicy
from repro.obs.metrics import MetricsRegistry

SMALL = 0.05


# -- execution policy ------------------------------------------------------

class TestExecutionPolicy:
    def test_defaults_are_valid(self):
        policy = ExecutionPolicy()
        assert policy.timeout_s is None
        assert policy.retries == 0

    @pytest.mark.parametrize("kwargs", [
        {"timeout_s": 0.0},
        {"timeout_s": -1.0},
        {"retries": -1},
        {"backoff_s": -0.1},
        {"backoff_multiplier": 0.5},
        {"jitter": 1.5},
        {"max_rebuilds": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(**kwargs)

    def test_delay_is_deterministic_and_bounded(self):
        policy = ExecutionPolicy(retries=3, backoff_s=0.1, jitter=0.5)
        first = policy.delay_s("key", 1)
        assert first == policy.delay_s("key", 1)
        base = policy.retry_policy().backoff(1)
        assert base * 0.5 <= first <= base
        # distinct units are decorrelated
        assert policy.delay_s("other", 1) != first

    def test_policy_in_manifest_dict(self):
        payload = ExecutionPolicy(timeout_s=5.0, retries=2).to_json_dict()
        assert payload["timeout_s"] == 5.0
        assert payload["retries"] == 2
        json.dumps(payload)  # manifest-safe


class TestRetryPolicyJitter:
    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(backoff_s=0.1, jitter=0.0)
        assert policy.jittered_backoff(0, 0.3) == policy.backoff(0)

    def test_jitter_spans_the_window(self):
        policy = RetryPolicy(backoff_s=0.1, multiplier=2.0, jitter=0.5)
        assert policy.jittered_backoff(1, 0.0) == pytest.approx(0.1)  # half of 0.2
        assert policy.jittered_backoff(1, 1.0) == pytest.approx(0.2)

    def test_jitter_validated(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=-0.1)
        policy = RetryPolicy(jitter=0.5)
        with pytest.raises(ConfigurationError):
            policy.jittered_backoff(0, 2.0)


# -- transient retries (serial path) ---------------------------------------

@pytest.fixture
def flaky_driver(monkeypatch):
    """A driver that fails its first ``fail_first`` calls, then succeeds."""
    calls = {"n": 0, "fail_first": 2}

    def flaky(scale=1.0, seed=None):
        calls["n"] += 1
        if calls["n"] <= calls["fail_first"]:
            raise RuntimeError(f"transient failure {calls['n']}")
        return ExperimentResult("flaky", "Flaky", tables=(
            Table("t", ("a",), ((calls["n"],),)),
        ))

    monkeypatch.setitem(_EXPERIMENTS, "flaky", Experiment(
        experiment_id="flaky", title="Flaky", paper_ref="-", run=flaky,
    ))
    return calls


class TestTransientRetries:
    def test_retries_recover_transient_failures(self, tmp_path, flaky_driver):
        registry = MetricsRegistry()
        with RunManifest(tmp_path / "m.jsonl") as manifest:
            [outcome] = execute(
                [WorkUnit("flaky", scale=SMALL)], jobs=1, manifest=manifest,
                policy=ExecutionPolicy(retries=3, backoff_s=0.001),
                metrics=registry,
            )
        assert outcome.ok
        assert outcome.retries == 2
        assert registry.get("engine_unit_retries_total").value == 2
        events = [r for r in read_manifest(tmp_path / "m.jsonl")
                  if r["record"] == "event"]
        assert [e["kind"] for e in events] == ["retry", "retry"]
        assert events[0]["reason"] == "error"
        assert events[0]["delay_s"] > 0

    def test_exhausted_budget_is_terminal(self, flaky_driver):
        [outcome] = execute(
            [WorkUnit("flaky", scale=SMALL)], jobs=1,
            policy=ExecutionPolicy(retries=1, backoff_s=0.001),
        )
        assert not outcome.ok
        assert outcome.retries == 1
        assert "transient failure 2" in outcome.error

    def test_default_policy_does_not_retry(self, flaky_driver):
        [outcome] = execute([WorkUnit("flaky", scale=SMALL)], jobs=1)
        assert not outcome.ok
        assert outcome.retries == 0
        assert flaky_driver["n"] == 1

    def test_unit_record_carries_retry_counts(self, tmp_path, flaky_driver):
        with RunManifest(tmp_path / "m.jsonl") as manifest:
            execute([WorkUnit("flaky", scale=SMALL)], jobs=1,
                    manifest=manifest,
                    policy=ExecutionPolicy(retries=2, backoff_s=0.001))
        [unit_record] = [r for r in read_manifest(tmp_path / "m.jsonl")
                         if r["record"] == "unit"]
        assert set(UNIT_FIELDS) <= set(unit_record)
        assert unit_record["retries"] == 2
        assert unit_record["requeued"] == 0
        assert unit_record["outcome"] == "ok"


# -- atomic, checksummed, quarantining result cache ------------------------

@pytest.fixture
def sample_result() -> ExperimentResult:
    return ExperimentResult(
        experiment_id="demo", title="Demo", scale=0.25,
        tables=(Table("t", ("k", "v"), (("one", 1), ("two", 2.5))),),
    )


KEY = "ab" + "0" * 62


class TestDurableResultCache:
    def test_put_leaves_no_tmp_files(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path)
        path = cache.put(KEY, sample_result)
        assert path.exists()
        assert not list(path.parent.glob("*.tmp.*"))

    def test_entries_carry_checksums(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path)
        payload = json.loads(cache.put(KEY, sample_result).read_text())
        assert payload["sha256"] == result_checksum(payload["result"])

    def test_truncated_entry_is_quarantined_miss(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path)
        path = cache.put(KEY, sample_result)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert cache.get(KEY) is None
        assert not path.exists()
        assert (cache.quarantine_dir / path.name).exists()
        assert cache.quarantined == 1
        # quarantined entries never poison later reads
        assert cache.get(KEY) is None

    def test_bitflip_fails_checksum_and_quarantines(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path)
        path = cache.put(KEY, sample_result)
        payload = json.loads(path.read_text())
        payload["result"]["tables"][0]["rows"][0][1] = 999  # silent corruption
        path.write_text(json.dumps(payload, sort_keys=True))
        assert cache.get(KEY) is None
        assert cache.quarantined == 1

    def test_quarantine_callback_fires(self, tmp_path, sample_result):
        seen = []
        cache = ResultCache(tmp_path,
                            on_quarantine=lambda key, dest: seen.append(key))
        path = cache.put(KEY, sample_result)
        path.write_text("{torn")
        cache.get(KEY)
        assert seen == [KEY]

    def test_pre_checksum_entries_still_read(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path)
        path = cache.put(KEY, sample_result)
        payload = json.loads(path.read_text())
        del payload["sha256"]  # a v1 entry written before this PR
        path.write_text(json.dumps(payload, sort_keys=True))
        assert cache.get(KEY) == sample_result

    def test_stats_count_quarantined(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path)
        path = cache.put(KEY, sample_result)
        path.write_text("{torn")
        cache.get(KEY)
        stats = cache.stats()
        assert stats.quarantined == 1
        assert "quarantined" in stats.render()
        cache.clear()
        assert not cache.quarantine_dir.exists()


class TestTraceStoreQuarantine:
    def test_corrupt_pickle_is_quarantined_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = traces_cache.trace_for("synth", SMALL)
        path = store.save(trace, "synth", SMALL, 1)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # torn gzip-pickle
        assert store.load("synth", SMALL, 1) is None
        assert not path.exists()
        assert (store.quarantine_dir / path.name).exists()
        # the slot is writable again
        store.save(trace, "synth", SMALL, 1)
        assert store.load("synth", SMALL, 1) is not None

    def test_missing_is_plain_miss_no_quarantine(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.load("synth", 0.5, 9) is None
        assert not store.quarantine_dir.exists()


# -- manifest v2 and resume ------------------------------------------------

class TestManifestV2:
    def test_run_record_schema(self, tmp_path):
        with RunManifest(tmp_path / "m.jsonl") as manifest:
            execute(decompose(("table2",), scale=SMALL), jobs=1,
                    manifest=manifest)
        [run] = [r for r in read_manifest(tmp_path / "m.jsonl")
                 if r["record"] == "run"]
        assert run["schema"] == SCHEMA_VERSION
        assert run["experiment_ids"] == ["table2"]
        assert run["policy"]["retries"] == 0
        assert run["resumed_from"] is None

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with RunManifest(path) as manifest:
            manifest.record_event("retry", unit="u")
        with open(path, "a") as stream:
            stream.write('{"record": "unit", "trunc')  # killed mid-append
        records = read_manifest(path)
        assert [r["record"] for r in records] == ["event"]

    def test_resume_spec_round_trips_the_request(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        units = decompose(("table2", "fig4"), scale=SMALL, seeds=(1, 2))
        with RunManifest(tmp_path / "m.jsonl") as manifest:
            execute(units, jobs=1, cache=cache, manifest=manifest)
        spec = resume_spec(tmp_path / "m.jsonl")
        assert spec["experiment_ids"] == ["table2", "fig4"]
        assert spec["scale"] == SMALL
        assert set(spec["seeds"]) == {1, 2}
        assert spec["cache_dir"] == str(cache.root)
        assert len(spec["completed"]) == 4
        # the reconstructed request decomposes to the same unit set
        again = decompose(spec["experiment_ids"], scale=spec["scale"],
                          seeds=tuple(spec["seeds"]))
        assert set(again) == set(units)

    def test_resume_spec_rejects_v1_manifests(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps({"record": "run", "jobs": 1,
                                    "scale": 0.2, "seeds": [None]}) + "\n")
        with pytest.raises(ConfigurationError, match="schema"):
            resume_spec(path)

    def test_resume_spec_rejects_non_manifests(self, tmp_path):
        path = tmp_path / "not.jsonl"
        path.write_text("")
        with pytest.raises(ConfigurationError, match="no run record"):
            resume_spec(path)


# -- the artifact directory is created once, in the parent -----------------

class TestArtifactDirectories:
    def test_execute_creates_dirs_up_front(self, tmp_path):
        observe_dir = tmp_path / "nested" / "observed"
        execute([], jobs=1, observe_dir=str(observe_dir))
        assert observe_dir.is_dir()

    def test_observed_units_write_into_them(self, tmp_path):
        observe_dir = tmp_path / "o"
        [outcome] = execute([WorkUnit("table2", scale=SMALL)], jobs=1,
                            observe_dir=str(observe_dir))
        assert outcome.ok
        assert set(outcome.artifacts) == {"trace", "metrics", "layers"}
        for path in outcome.artifacts.values():
            assert os.path.dirname(path) == str(observe_dir)
            assert os.path.isfile(path)


# -- summarize gains recovery counts ---------------------------------------

def test_summarize_counts_recovery(flaky_driver):
    outcomes = execute([WorkUnit("flaky", scale=SMALL)], jobs=1,
                       policy=ExecutionPolicy(retries=3, backoff_s=0.001))
    counts = summarize(outcomes)
    assert counts["retries"] == 2
    assert counts["requeued"] == 0
