"""Fleet fast path: exact parameter sampling, invariance properties,
columnar transport, and the population-equivalence contract.

The fast-vs-reference contract test runs the smallest fleet whose
population statistics outrun per-seed sampling noise, so tier-1 stays
fast.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.contract import FLEET_TOLERANCES as TOLERANCES
from repro.engine import ResultCache, RunManifest
from repro.errors import ConfigurationError
from repro.fleet import (
    FleetSpec,
    MAX_SHARD_DEVICES,
    aggregate_columns,
    aggregate_rows,
    canonical_json,
    compare_summaries,
    decompose_fleet,
    default_shards,
    merge_columns,
    pack_columns,
    run_fleet,
    sample_device,
    sample_device_batch,
    simulate_shard_fast,
)
from repro.fleet.population import METRIC_FIELDS
from repro.obs.metrics import MetricsRegistry
from repro.serve.jobs import parse_request

SPEC = FleetSpec(devices=48, seed=11, scale=0.1, ops_per_device=150)

GOLDEN = Path(__file__).parent / "golden" / "fleet_fast_12.json"


# -- exact parameter sampling ------------------------------------------------


class TestSampleBatch:
    def test_matches_reference_sampler_exactly(self):
        # Every drawn parameter byte-identical to sample_device's
        # random.Random walk, across a parameter-diverse population.
        spec = FleetSpec(devices=300, seed=5, scale=0.3, ops_per_device=900)
        batch = sample_device_batch(spec, np.arange(spec.devices))
        from repro.fleet.synth import DEVICE_NAMES, WORKLOAD_NAMES

        for i in range(spec.devices):
            ref = sample_device(spec, i)
            assert WORKLOAD_NAMES[batch.workload[i]] == ref.workload
            assert DEVICE_NAMES[batch.device[i]] == ref.device
            assert int(batch.n_ops[i]) == ref.n_ops
            assert int(batch.dram_bytes[i]) == ref.dram_bytes
            assert int(batch.sram_bytes[i]) == ref.sram_bytes
            assert float(batch.spin_down_timeout_s[i]) == ref.spin_down_timeout_s
            assert float(batch.flash_utilization[i]) == ref.flash_utilization
            assert int(batch.seed[i]) == ref.seed

    def test_batch_is_slice_invariant(self):
        spec = FleetSpec(devices=64, seed=9, scale=0.1, ops_per_device=200)
        whole = sample_device_batch(spec, np.arange(64))
        part = sample_device_batch(spec, np.arange(17, 29))
        np.testing.assert_array_equal(whole.n_ops[17:29], part.n_ops)
        np.testing.assert_array_equal(whole.workload[17:29], part.workload)


# -- invariance of the fast summary ------------------------------------------


class TestFastInvariance:
    def test_byte_identical_across_shard_counts(self):
        one = run_fleet(SPEC, jobs=1, shards=1, fast=True)
        many = run_fleet(SPEC, jobs=1, shards=5, fast=True)
        assert one.ok and many.ok
        assert canonical_json(one.summary) == canonical_json(many.summary)

    def test_byte_identical_through_cache_replay(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_fleet(SPEC, jobs=1, shards=3, cache=cache, fast=True)
        replay = run_fleet(SPEC, jobs=1, shards=3, cache=cache, fast=True)
        assert [o.cache for o in replay.outcomes] == ["hit"] * 3
        assert all(o.result.columns is not None for o in replay.outcomes)
        assert canonical_json(first.summary) == canonical_json(replay.summary)

    def test_fast_and_reference_cache_keys_differ(self, tmp_path):
        # fast=True must never replay a reference shard (or vice versa).
        cache = ResultCache(tmp_path)
        run_fleet(SPEC, jobs=1, shards=2, cache=cache)
        fast = run_fleet(SPEC, jobs=1, shards=2, cache=cache, fast=True)
        assert [o.cache for o in fast.outcomes] == ["miss", "miss"]

    def test_transport_invariant(self):
        # Summary aggregated from the columnar payload is byte-identical
        # to one aggregated from the human device table.
        rows, _ = simulate_shard_fast(SPEC, range(SPEC.devices))
        via_rows = aggregate_rows(rows)
        via_columns = aggregate_columns(pack_columns(rows))
        assert json.dumps(via_rows, sort_keys=True) == json.dumps(
            via_columns, sort_keys=True
        )


# -- columnar payload ---------------------------------------------------------


class TestColumns:
    def test_merge_sorts_and_rejects_overlap(self):
        rows, _ = simulate_shard_fast(SPEC, range(8))
        front, back = pack_columns(rows[:5]), pack_columns(rows[5:])
        merged = merge_columns([back, front])  # out-of-order shards
        assert merged["device"].tolist() == list(range(8))
        with pytest.raises(ConfigurationError):
            merge_columns([front, front])

    def test_wear_is_nan_for_non_cards(self):
        rows, _ = simulate_shard_fast(SPEC, range(SPEC.devices))
        columns = pack_columns(rows)
        nan_count = int(np.isnan(columns["wear_max"]).sum())
        assert nan_count == sum(1 for r in rows if r["wear_max"] is None)

    def test_schema_version_checked(self):
        rows, _ = simulate_shard_fast(SPEC, range(4))
        columns = pack_columns(rows)
        columns["schema"] = 99
        with pytest.raises(ConfigurationError):
            merge_columns([columns])


# -- the population-equivalence contract --------------------------------------


class TestContract:
    def test_fast_agrees_with_reference(self):
        # MIN_CONTRACT_DEVICES: the smallest fleet where population
        # statistics outrun per-seed sampling noise (smaller fleets blow
        # the energy tolerances on tail luck alone).
        spec = FleetSpec(devices=1024, seed=11, scale=0.1, ops_per_device=400)
        fast = run_fleet(spec, jobs=2, fast=True)
        ref = run_fleet(spec, jobs=2)
        assert fast.ok and ref.ok
        problems = compare_summaries(ref.summary, fast.summary).problems()
        assert not problems, "\n".join(problems)

    def test_exact_fields_flagged(self):
        spec = FleetSpec(devices=16, seed=2, scale=0.1, ops_per_device=150)
        run = run_fleet(spec, jobs=1, fast=True)
        tampered = json.loads(canonical_json(run.summary))
        tampered["population"]["total_ops"] += 1
        problems = compare_summaries(run.summary, tampered).problems()
        assert any("total_ops" in p for p in problems)

    def test_tolerances_cover_all_metrics(self):
        assert set(TOLERANCES) == set(METRIC_FIELDS)


# -- golden fixture ------------------------------------------------------------


class TestGolden:
    def test_fast_12_device_fleet_matches_golden(self, update_golden):
        spec = FleetSpec(devices=12, seed=7, scale=0.1, ops_per_device=400)
        run = run_fleet(spec, jobs=1, shards=1, fast=True)
        assert run.ok
        document = canonical_json(run.summary)
        if update_golden:
            GOLDEN.write_text(document)
            return
        assert GOLDEN.exists(), (
            "no golden fixture; generate with --update-golden"
        )
        assert document == GOLDEN.read_text(), (
            "fast-path 12-device fleet diverged from its golden fixture; "
            "if intentional, regenerate with `PYTHONPATH=src python -m "
            "pytest tests/test_fleet_fast.py --update-golden`"
        )


# -- shard bounding / progress / metrics ---------------------------------------


class TestOps:
    def test_default_shards_bounds_shard_size(self):
        devices = 1_000_000
        for jobs in (1, 8):
            shards = default_shards(devices, jobs)
            largest = -(-devices // shards)
            assert largest <= MAX_SHARD_DEVICES
        # Small fleets keep the original policy.
        assert default_shards(1000, 1) == 1
        assert default_shards(1000, 4) == 8

    def test_fleet_progress_events_and_counter(self, tmp_path):
        registry = MetricsRegistry()
        path = tmp_path / "m.jsonl"
        with RunManifest(path) as manifest:
            run = run_fleet(SPEC, jobs=1, shards=3, fast=True,
                            manifest=manifest, metrics=registry)
        assert run.ok
        assert run.devices_per_s > 0
        counter = registry.get("serve_fleet_devices_total")
        assert counter.value == SPEC.devices
        events = [json.loads(line) for line in path.read_text().splitlines()]
        progress = [e for e in events
                    if e.get("record") == "event"
                    and e.get("kind") == "fleet-progress"]
        assert len(progress) == 3
        assert progress[-1]["devices_done"] == SPEC.devices
        assert progress[-1]["devices_total"] == SPEC.devices
        assert progress[-1]["devices_per_s"] > 0

    def test_kernel_rejected_with_fast(self, tmp_path, capsys):
        # The fast path never calls Simulator: a kernel would only fork
        # the cache key of identical device rows.
        for kernel in ("vector", "batched"):
            with pytest.raises(ConfigurationError, match="fast"):
                decompose_fleet(SPEC, 1, kernel, fast=True)
        assert len(decompose_fleet(SPEC, 2, None, fast=True)) == 2
        assert len(decompose_fleet(SPEC, 2, "vector")) == 2
        from repro.__main__ import main

        assert main(["fleet", "--devices", "4", "--fast", "--kernel",
                     "vector", "--jobs", "1", "--no-cache",
                     "--manifest", str(tmp_path / "m.jsonl")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_parse_request_accepts_fast(self):
        request = parse_request({"kind": "fleet", "devices": 10, "fast": True})
        assert request["fast"] is True
        request = parse_request({"kind": "fleet", "devices": 10})
        assert "fast" not in request
        with pytest.raises(ConfigurationError):
            parse_request({"kind": "fleet", "devices": 10, "fast": "yes"})
