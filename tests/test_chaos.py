"""The chaos harness, and the recovery paths it exists to prove.

The acceptance scenario (ISSUE 6): with a seeded plan that kills a
worker, hangs a unit past its timeout, exception-crashes a unit, and
corrupts a cache entry mid-sweep, ``repro run`` followed by ``repro run
--resume`` yields every unit ``ok``, results byte-identical to an
undisturbed ``jobs=1`` run, and a manifest recording every
retry/requeue/degradation event.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.engine import (
    ChaosAction,
    ChaosError,
    ChaosPlan,
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
from repro.engine import chaos as chaos_mod
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry

SMALL = 0.05
#: Cheap drivers: table2 is static, fig4 simulates the short dos trace.
IDS = ("table2", "fig4")


@pytest.fixture(autouse=True)
def no_leaked_plan():
    yield
    chaos_mod.set_active(None)


# -- the plan itself -------------------------------------------------------

class TestChaosPlan:
    def test_random_is_seed_deterministic(self, tmp_path):
        units = decompose(IDS, scale=SMALL, seeds=(1, 2))
        a = ChaosPlan.random(units, seed=7, state_dir=tmp_path)
        b = ChaosPlan.random(units, seed=7, state_dir=tmp_path)
        assert a.actions == b.actions
        c = ChaosPlan.random(units, seed=8, state_dir=tmp_path)
        assert a.actions != c.actions

    def test_random_draws_distinct_victims(self, tmp_path):
        units = decompose(IDS, scale=SMALL, seeds=(1, 2))
        plan = ChaosPlan.random(units, seed=3, state_dir=tmp_path)
        victims = [(a.experiment_id, a.seed) for a in plan.actions]
        assert len(victims) == len(set(victims)) == 4
        assert {a.mode for a in plan.actions} == {"kill", "hang", "crash",
                                                  "corrupt"}

    def test_random_rejects_too_few_units(self, tmp_path):
        with pytest.raises(ConfigurationError, match="victims"):
            ChaosPlan.random(decompose(("table2",), scale=SMALL),
                             seed=1, state_dir=tmp_path)

    def test_json_round_trip(self, tmp_path):
        units = decompose(IDS, scale=SMALL, seeds=(1, 2))
        plan = ChaosPlan.random(units, seed=7, state_dir=tmp_path / "state",
                                hang_s=12.5)
        loaded = ChaosPlan.load(plan.save(tmp_path / "plan.json"))
        assert loaded == plan

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode"):
            ChaosAction(mode="nuke", experiment_id="table2")

    def test_claims_are_one_shot(self, tmp_path):
        action = ChaosAction(mode="crash", experiment_id="x", times=2)
        plan = ChaosPlan(seed=1, state_dir=str(tmp_path), actions=(action,))
        assert plan.claim(action)
        assert plan.claim(action)
        assert not plan.claim(action)  # both slots spent, forever

    def test_corrupt_file_truncates(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text(json.dumps({"k": "v" * 100}))
        assert chaos_mod.corrupt_file(path)
        with pytest.raises(ValueError):
            json.loads(path.read_text())
        assert not chaos_mod.corrupt_file(tmp_path / "missing.json")


class TestInjection:
    def test_crash_raises_once(self, tmp_path):
        unit = WorkUnit("table2", scale=SMALL, seed=1)
        plan = ChaosPlan(seed=1, state_dir=str(tmp_path), actions=(
            ChaosAction(mode="crash", experiment_id="table2", seed=1),
        ))
        chaos_mod.set_active(plan)
        with pytest.raises(ChaosError, match="injected crash"):
            chaos_mod.maybe_inject(unit)
        chaos_mod.maybe_inject(unit)  # claimed: second attempt runs clean

    def test_kill_and_hang_never_fire_in_the_parent(self, tmp_path):
        unit = WorkUnit("table2", scale=SMALL, seed=1)
        plan = ChaosPlan(seed=1, state_dir=str(tmp_path), hang_s=3600.0,
                         actions=(
            ChaosAction(mode="kill", experiment_id="table2", seed=1),
            ChaosAction(mode="hang", experiment_id="table2", seed=1),
        )).bound_to_parent()
        chaos_mod.set_active(plan)
        chaos_mod.maybe_inject(unit)  # would exit or sleep an hour otherwise
        assert not plan.claim(plan.actions[0]) or True  # still alive is the test

    def test_no_plan_is_a_no_op(self):
        chaos_mod.set_active(None)
        assert chaos_mod.active() is None
        chaos_mod.maybe_inject(WorkUnit("table2", scale=SMALL))


# -- recovery paths, one by one --------------------------------------------

class TestRecoveryPaths:
    def test_killed_worker_breaks_only_the_in_flight_window(self, tmp_path):
        """A SIGKILL'd worker requeues the in-flight units — with the
        dead pid on record — and never smears a parent traceback over
        the rest of the sweep (satellite: breakage attribution)."""
        units = decompose(IDS, scale=SMALL, seeds=(1, 2))
        plan = ChaosPlan(seed=1, state_dir=str(tmp_path / "state"), actions=(
            ChaosAction(mode="kill", experiment_id="table2", seed=1),
        ))
        registry = MetricsRegistry()
        with RunManifest(tmp_path / "m.jsonl") as manifest:
            outcomes = execute(units, jobs=2, manifest=manifest,
                               policy=ExecutionPolicy(retries=0),
                               chaos=plan, metrics=registry)
        assert all(outcome.ok for outcome in outcomes)
        assert sum(outcome.requeued for outcome in outcomes) >= 1
        assert registry.get("engine_pool_rebuilds_total").value >= 1
        events = [r for r in read_manifest(tmp_path / "m.jsonl")
                  if r["record"] == "event"]
        requeues = [e for e in events if e["kind"] == "requeue"]
        assert requeues, "breakage must be recorded"
        for event in requeues:
            # only the in-flight window, with the dead worker pid
            assert 1 <= len(event["units"]) <= 2
            assert event["reason"] == "pool-breakage"
            assert all(isinstance(pid, int) for pid in event["dead_workers"])
        assert any(e["kind"] == "rebuild" for e in events)

    def test_hung_unit_times_out_and_retries(self, tmp_path):
        units = decompose(IDS, scale=SMALL, seeds=(1,))
        plan = ChaosPlan(seed=1, state_dir=str(tmp_path / "state"),
                         hang_s=30.0, actions=(
            ChaosAction(mode="hang", experiment_id="table2", seed=1),
        ))
        registry = MetricsRegistry()
        outcomes = execute(
            units, jobs=2, chaos=plan, metrics=registry,
            policy=ExecutionPolicy(timeout_s=2.0, retries=1, backoff_s=0.01),
        )
        assert all(outcome.ok for outcome in outcomes)
        [victim] = [o for o in outcomes if o.unit.seed == 1
                    and o.unit.experiment_id == "table2"]
        assert victim.retries == 1
        assert registry.get("engine_unit_timeouts_total").value == 1

    def test_timeout_without_budget_is_terminal(self, tmp_path):
        units = decompose(("table2",), scale=SMALL, seeds=(1,))
        plan = ChaosPlan(seed=1, state_dir=str(tmp_path / "state"),
                         hang_s=30.0, actions=(
            ChaosAction(mode="hang", experiment_id="table2", seed=1),
        ))
        [outcome] = execute(
            units, jobs=2, chaos=plan,
            policy=ExecutionPolicy(timeout_s=1.5, retries=0),
        )
        assert not outcome.ok
        assert "wall-clock timeout" in outcome.error

    def test_repeated_breakage_degrades_to_serial(self, tmp_path):
        """K consecutive pool breakages fall back to in-process serial
        execution; the sweep still completes."""
        units = decompose(IDS, scale=SMALL, seeds=(1, 2))
        plan = ChaosPlan(seed=1, state_dir=str(tmp_path / "state"), actions=(
            ChaosAction(mode="kill", experiment_id="table2", seed=1, times=5),
        ))
        registry = MetricsRegistry()
        with RunManifest(tmp_path / "m.jsonl") as manifest:
            outcomes = execute(units, jobs=2, manifest=manifest, chaos=plan,
                               policy=ExecutionPolicy(max_rebuilds=1),
                               metrics=registry)
        assert all(outcome.ok for outcome in outcomes)
        assert registry.get("engine_pool_degradations_total").value == 1
        events = [r for r in read_manifest(tmp_path / "m.jsonl")
                  if r["record"] == "event"]
        [degrade] = [e for e in events if e["kind"] == "degrade"]
        assert degrade["after_rebuilds"] == 1

    def test_crash_is_an_ordinary_transient_failure(self, tmp_path):
        units = decompose(("table2",), scale=SMALL, seeds=(1,))
        plan = ChaosPlan(seed=1, state_dir=str(tmp_path / "state"), actions=(
            ChaosAction(mode="crash", experiment_id="table2", seed=1),
        ))
        [outcome] = execute(units, jobs=2, chaos=plan,
                            policy=ExecutionPolicy(retries=1, backoff_s=0.01))
        assert outcome.ok
        assert outcome.retries == 1

    def test_corrupted_entry_quarantined_on_replay(self, tmp_path):
        units = decompose(("table2",), scale=SMALL, seeds=(1,))
        cache = ResultCache(tmp_path / "cache")
        plan = ChaosPlan(seed=1, state_dir=str(tmp_path / "state"), actions=(
            ChaosAction(mode="corrupt", experiment_id="table2", seed=1),
        ))
        first = execute(units, jobs=1, cache=cache, chaos=plan)
        assert first[0].ok  # corruption lands *after* the unit finished
        with RunManifest(tmp_path / "m.jsonl") as manifest:
            second = execute(units, jobs=1, cache=cache, manifest=manifest)
        assert second[0].ok
        assert second[0].cache == "miss"  # quarantined, recomputed
        assert cache.quarantined == 1
        events = [r for r in read_manifest(tmp_path / "m.jsonl")
                  if r["record"] == "event"]
        assert [e["kind"] for e in events] == ["quarantine"]
        assert first[0].result.render() == second[0].result.render()


# -- the acceptance scenario, API level ------------------------------------

class TestChaosAcceptance:
    def test_chaotic_sweep_resumes_byte_identical(self, tmp_path):
        units = decompose(IDS, scale=SMALL, seeds=(1, 2))

        # undisturbed serial ground truth
        baseline = execute(units, jobs=1)
        truth = {o.unit: o.result.render() for o in baseline}

        plan = ChaosPlan.random(units, seed=7,
                                state_dir=tmp_path / "chaos-state",
                                hang_s=30.0)
        assert {a.mode for a in plan.actions} == {"kill", "hang", "crash",
                                                  "corrupt"}
        cache = ResultCache(tmp_path / "cache")
        policy = ExecutionPolicy(timeout_s=10.0, retries=2, backoff_s=0.01)
        with RunManifest(tmp_path / "m1.jsonl") as manifest:
            disturbed = execute(units, jobs=2, cache=cache,
                                trace_store=TraceStore(tmp_path / "cache"),
                                manifest=manifest, policy=policy, chaos=plan)
        counts = summarize(disturbed)
        assert counts["ok"] == len(units)
        assert counts["retries"] + counts["requeued"] >= 1

        # resume from the manifest: completed units replay from cache,
        # the chaos-corrupted entry quarantines and recomputes
        spec = resume_spec(tmp_path / "m1.jsonl")
        resumed_units = decompose(spec["experiment_ids"], scale=spec["scale"],
                                  seeds=tuple(spec["seeds"]))
        with RunManifest(tmp_path / "m2.jsonl") as manifest:
            resumed = execute(resumed_units, jobs=2, cache=cache,
                              manifest=manifest, policy=policy,
                              resumed_from=str(tmp_path / "m1.jsonl"))
        assert all(o.ok for o in resumed)
        final = {o.unit: o.result.render() for o in resumed}
        for unit in units:
            assert final[unit] == truth[unit], unit.label

        # every disturbance is on the record
        records = (read_manifest(tmp_path / "m1.jsonl")
                   + read_manifest(tmp_path / "m2.jsonl"))
        kinds = {r["kind"] for r in records if r["record"] == "event"}
        assert "chaos-corrupt" in kinds
        assert "quarantine" in kinds
        assert kinds & {"retry", "requeue"}
        unit_records = [r for r in records if r["record"] == "unit"]
        assert all("retries" in r and "requeued" in r for r in unit_records)
        [run2] = [r for r in read_manifest(tmp_path / "m2.jsonl")
                  if r["record"] == "run"]
        assert run2["resumed_from"] == str(tmp_path / "m1.jsonl")


# -- the acceptance scenario, CLI level ------------------------------------

class TestCliResume:
    def test_interrupted_run_resumes_to_completion(self, tmp_path, capsys):
        """SIGKILL a worker mid-run and hang another unit past a timeout
        it has no budget to retry: the first ``repro run`` exits 1 with
        the hang terminal, ``repro run --resume`` completes all units
        from cache + one recompute."""
        plan = ChaosPlan(seed=1, state_dir=str(tmp_path / "state"),
                         hang_s=30.0, actions=(
            ChaosAction(mode="kill", experiment_id="table2", seed=1),
            ChaosAction(mode="hang", experiment_id="fig4", seed=1),
        ))
        plan_path = plan.save(tmp_path / "plan.json")
        cache_dir = str(tmp_path / "cache")
        m1 = str(tmp_path / "m1.jsonl")

        code = main(["run", "table2", "fig4", "--scale", str(SMALL),
                     "--seed", "1", "--seed", "2", "--jobs", "2",
                     "--timeout", "2", "--retries", "0",
                     "--chaos", str(plan_path),
                     "--cache-dir", cache_dir, "--manifest", m1])
        capsys.readouterr()
        assert code == 1  # the hung unit had no retry budget
        spec = resume_spec(m1)
        assert len(spec["completed"]) == 3

        m2 = str(tmp_path / "m2.jsonl")
        code = main(["run", "--resume", m1, "--jobs", "2",
                     "--manifest", m2])
        out = capsys.readouterr().out
        assert code == 0
        assert "resumed from" in out
        records = read_manifest(m2)
        unit_records = [r for r in records if r["record"] == "unit"]
        assert sorted(r["cache"] for r in unit_records) == \
            ["hit", "hit", "hit", "miss"]
        assert all(r["outcome"] == "ok" for r in unit_records)

    def test_resumed_chaos_run_matches_undisturbed_serial(self, tmp_path, capsys):
        """CLI end to end: chaos run (recovering in-run) then --resume;
        the streamed report equals an undisturbed ``--jobs 1`` run's."""
        units = decompose(IDS, scale=SMALL, seeds=(1, 2))
        plan = ChaosPlan.random(units, seed=5,
                                state_dir=tmp_path / "state", hang_s=30.0)
        plan_path = plan.save(tmp_path / "plan.json")
        cache_dir = str(tmp_path / "cache")
        base_out = tmp_path / "base.txt"
        chaos_out = tmp_path / "chaos.txt"
        resume_out = tmp_path / "resume.txt"

        args = ["run", "table2", "fig4", "--scale", str(SMALL),
                "--seed", "1", "--seed", "2"]
        assert main(args + ["--jobs", "1", "--no-cache", "--quiet",
                            "--manifest", str(tmp_path / "mb.jsonl"),
                            "--output", str(base_out)]) == 0
        assert main(args + ["--jobs", "2", "--timeout", "10", "--retries", "2",
                            "--chaos", str(plan_path), "--quiet",
                            "--cache-dir", cache_dir,
                            "--manifest", str(tmp_path / "m1.jsonl"),
                            "--output", str(chaos_out)]) == 0
        assert main(["run", "--resume", str(tmp_path / "m1.jsonl"),
                     "--jobs", "2", "--quiet",
                     "--manifest", str(tmp_path / "m2.jsonl"),
                     "--output", str(resume_out)]) == 0
        capsys.readouterr()
        assert chaos_out.read_bytes() == base_out.read_bytes()
        assert resume_out.read_bytes() == base_out.read_bytes()

    def test_resume_refuses_no_cache(self, tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({
            "record": "run", "schema": 2, "jobs": 1, "scale": SMALL,
            "seeds": [None], "experiment_ids": ["table2"],
            "cache_dir": None,
        }) + "\n")
        assert main(["run", "--resume", str(path), "--no-cache"]) == 2
        assert "--no-cache" in capsys.readouterr().err

    def test_resume_rejects_old_manifest(self, tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({"record": "run", "jobs": 1,
                                    "scale": SMALL, "seeds": [None]}) + "\n")
        assert main(["run", "--resume", str(path)]) == 2
        assert "schema" in capsys.readouterr().err

    def test_fleet_manifest_resumes_its_shards(self, tmp_path, capsys):
        """A fleet manifest records its shard units; ``--resume`` replays
        exactly those (not the registry-default 12-device fleet)."""
        cache_dir = str(tmp_path / "cache")
        m1 = str(tmp_path / "fleet.jsonl")
        m2 = str(tmp_path / "resume.jsonl")
        assert main(["fleet", "--devices", "40", "--shards", "4",
                     "--scale", str(SMALL), "--ops", "200", "--jobs", "1",
                     "--quiet", "--cache-dir", cache_dir,
                     "--manifest", m1]) == 0
        assert main(["run", "--resume", m1, "--jobs", "1", "--quiet",
                     "--manifest", m2]) == 0
        capsys.readouterr()
        units = [r for r in read_manifest(m2) if r["record"] == "unit"]
        assert [r["experiment_id"] for r in units] == ["fleet"] * 4
        assert [r["cache"] for r in units] == ["hit"] * 4
        assert sorted(r["kwargs"]["shard"] for r in units) == \
            ["0", "1", "2", "3"]
        assert {r["kwargs"]["devices"] for r in units} == {"40"}

    def test_bad_chaos_plan_rejected(self, tmp_path, capsys, monkeypatch):
        """Every engine front reports an unloadable plan as one ``error:``
        line, exit 2 — ``serve`` before it binds a port."""
        def no_server(*args, **kwargs):
            raise AssertionError("serve started despite a bad chaos plan")

        monkeypatch.setattr("repro.serve.http.run_server", no_server)
        path = tmp_path / "plan.json"
        path.write_text("{not json")
        missing = tmp_path / "missing.json"
        cache = ["--cache-dir", str(tmp_path / "cache")]
        for argv in (["run", "table2"], ["fleet", "--devices", "4"],
                     ["serve", "--port", "0"]):
            for plan in (path, missing):
                assert main(argv + cache + ["--chaos", str(plan)]) == 2, argv
                captured = capsys.readouterr()
                assert captured.err.startswith(
                    f"error: bad chaos plan {plan}: "), argv
                assert captured.err.count("\n") == 1, captured.err


def test_env_activation(tmp_path, monkeypatch):
    """$REPRO_CHAOS_PLAN activates a plan in a fresh process (the
    documented hook for breaking engines the CLI did not start)."""
    plan = ChaosPlan(seed=1, state_dir=str(tmp_path / "state"), actions=(
        ChaosAction(mode="crash", experiment_id="table2", seed=1),
    ))
    path = plan.save(tmp_path / "plan.json")
    chaos_mod.set_active(None)
    monkeypatch.setenv(chaos_mod.CHAOS_PLAN_ENV, str(path))
    loaded = chaos_mod.active()
    assert loaded is not None
    assert loaded.actions == plan.actions
