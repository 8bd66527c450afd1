"""The ``python -m repro`` command-line interface."""

import json
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main


def test_devices_lists_registry(capsys):
    assert main(["devices"]) == 0
    out = capsys.readouterr().out
    assert "cu140-datasheet" in out
    assert "intel-datasheet" in out


def test_experiments_lists_registry(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    assert "table4" in out
    assert "fig5" in out


def test_simulate_synth(capsys):
    code = main([
        "simulate", "--workload", "synth", "--ops", "500",
        "--device", "sdp5-datasheet",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "energy" in out
    assert "sdp5-datasheet" in out


def test_simulate_flash_card_reports_wear(capsys):
    main([
        "simulate", "--workload", "synth", "--ops", "500",
        "--device", "intel-datasheet",
    ])
    assert "wear" in capsys.readouterr().out


def test_simulate_no_spin_down(capsys):
    code = main([
        "simulate", "--workload", "mac", "--ops", "500", "--no-spin-down",
    ])
    assert code == 0


def test_generate_and_analyze_roundtrip(tmp_path, capsys):
    path = tmp_path / "t.txt"
    assert main(["generate", "--workload", "synth", "--ops", "400",
                 "-o", str(path)]) == 0
    assert path.exists()
    capsys.readouterr()
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "distinct data" in out
    assert "LRU hit rate" in out


def test_generate_trace_is_loadable(tmp_path):
    from repro.traces.io import load_trace

    path = tmp_path / "t.txt"
    main(["generate", "--workload", "dos", "--ops", "300", "-o", str(path)])
    trace = load_trace(path)
    assert len(trace) == 300
    assert trace.block_size == 512


def test_experiment_command(capsys):
    assert main(["experiment", "table2", "--scale", "1.0"]) == 0
    assert "manufacturer specifications" in capsys.readouterr().out


def test_experiment_command_accepts_seed(capsys):
    assert main(["experiment", "table2", "--scale", "1.0", "--seed", "9"]) == 0
    assert "manufacturer specifications" in capsys.readouterr().out


def test_faults_command_reports_reliability(capsys):
    code = main([
        "faults", "--workload", "synth", "--ops", "800", "--seed", "3",
        "--device", "intel-datasheet",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "reliability" in out
    assert "retries" in out
    assert "power losses" in out
    assert "recovery" in out


def test_faults_command_is_deterministic(capsys):
    argv = ["faults", "--workload", "synth", "--ops", "800", "--seed", "5",
            "--read-error-rate", "0.05", "--write-error-rate", "0.05"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_faults_command_power_loss_flag(capsys):
    code = main([
        "faults", "--workload", "synth", "--ops", "800", "--seed", "2",
        "--device", "cu140-datasheet",
        "--power-loss-at", "400", "--power-loss-at", "700",
        "--read-error-rate", "0", "--write-error-rate", "0",
        "--bad-block-rate", "0",
    ])
    assert code == 0
    assert "power losses" in capsys.readouterr().out


def test_simulate_from_trace_file(tmp_path, capsys):
    path = tmp_path / "t.txt"
    main(["generate", "--workload", "synth", "--ops", "300", "-o", str(path)])
    capsys.readouterr()
    assert main(["simulate", "--workload", str(path), "--device",
                 "intel-datasheet"]) == 0


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_command_errors():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def _assert_one_error_line(capsys, named: str) -> None:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert named in captured.err


@pytest.mark.parametrize("argv, named", [
    (["simulate", "--workload", "mac", "--ops", "100", "--device", "nope"],
     "unknown device spec 'nope'"),
    (["experiment", "nope"], "unknown experiment 'nope'"),
], ids=["simulate", "experiment"])
def test_configuration_error_prints_one_line_and_exits_2(argv, named, capsys):
    assert main(argv) == 2
    _assert_one_error_line(capsys, named)


def test_unknown_kernel_is_an_argument_error(capsys):
    argv = ["simulate", "--workload", "mac", "--ops", "100",
            "--kernel", "reference"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "invalid choice: 'reference'" in capsys.readouterr().err


@pytest.mark.parametrize("kernel", ["reference", "turbo"])
def test_resuming_a_manifest_with_an_unknown_kernel_exits_2(
    kernel, tmp_path, capsys
):
    manifest = tmp_path / "m.jsonl"
    assert main(["run", "table2", "--scale", "1.0", "--jobs", "1",
                 "--kernel", "batched", "--cache-dir", str(tmp_path / "c"),
                 "--manifest", str(manifest), "--quiet"]) == 0
    capsys.readouterr()
    text = manifest.read_text()
    assert '"kernel": "batched"' in text
    manifest.write_text(text.replace('"kernel": "batched"', f'"kernel": "{kernel}"'))
    assert main(["run", "--resume", str(manifest), "--jobs", "1", "--quiet"]) == 2
    _assert_one_error_line(
        capsys, f"unknown kernel {kernel!r} (choose from: batched, vector)"
    )


def test_negative_op_count_prints_one_line_and_exits_2(tmp_path, capsys):
    output = tmp_path / "x"
    assert main(["generate", "--ops", "-5", "-o", str(output)]) == 2
    _assert_one_error_line(capsys, "n_ops must be >= 0, got -5")
    assert not output.exists()


def test_malformed_trace_prints_one_line_and_exits_2(tmp_path, capsys):
    source = tmp_path / "bad.blk"
    source.write_text("garbage line\n")
    argv = ["import", str(source), "--format", "blktrace",
            "-o", str(tmp_path / "out.trace")]
    assert main(argv) == 2
    _assert_one_error_line(capsys, "expected >= 7 fields")


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("kernel", ["batched", "vector"])
def test_non_finite_trace_time_prints_one_line_and_exits_2(
    text, kernel, tmp_path, capsys
):
    path = tmp_path / "nonfinite.txt"
    path.write_text(f"0.0 write 1 0 1024\n{text} read 1 0 1024\n")
    argv = ["simulate", "--workload", str(path), "--device", "intel-datasheet",
            "--kernel", kernel]
    assert main(argv) == 2
    _assert_one_error_line(capsys, f"{path}:2: record time must be finite")


@pytest.mark.parametrize("length", ["0", "-1", "nan", "inf", "1e308"])
def test_fit_rejects_a_bad_length_before_writing(tmp_path, capsys, length):
    model = tmp_path / "m.json"
    argv = ["fit", "mac", "--ops", "50", "--length", length, "-o", str(model)]
    assert main(argv) == 2
    _assert_one_error_line(capsys, "extension length")
    assert not model.exists()


def test_analyze_rejects_a_negative_cache(tmp_path, capsys):
    path = tmp_path / "t.txt"
    assert main(["generate", "--workload", "mac", "--ops", "50",
                 "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["analyze", "--cache-kb", "-5", str(path)]) == 2
    _assert_one_error_line(capsys, "cache capacity")


def test_bad_fitted_model_prints_one_line_and_exits_2(tmp_path, capsys):
    from repro.traces.fitting import FittedWorkload
    from repro.traces.stats import compute_statistics
    from repro.traces.workloads import MacWorkload

    spec = MacWorkload()
    model = FittedWorkload(
        spec=spec,
        reference=compute_statistics(spec.generate(seed=5, n_ops=200)),
        source="mac",
    ).to_dict()
    model["spec"]["interarrival_mean_s"] = 0
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model))
    argv = ["simulate", "--workload", f"fitted:{path}", "--ops", "200",
            "--device", "intel-datasheet"]
    assert main(argv) == 2
    _assert_one_error_line(capsys, "interarrival_mean_s")


@pytest.mark.parametrize("argv", [
    ["analyze", "{missing}"],
    ["simulate", "--workload", "{missing}"],
    ["import", "{missing}", "--format", "blktrace", "-o", "{out}"],
], ids=["analyze", "simulate", "import"])
def test_missing_input_file_prints_one_line_and_exits_2(argv, tmp_path, capsys):
    missing = str(tmp_path / "missing.trace")
    argv = [arg.format(missing=missing, out=tmp_path / "out.trace")
            for arg in argv]
    assert main(argv) == 2
    _assert_one_error_line(capsys, missing)


# -- the engine front end: repro run / repro cache -------------------------


ENGINE_OPTIONS = ("jobs", "cache_dir", "no_cache", "timeout", "retries",
                  "max_rebuilds", "chaos")
RUN_OPTIONS = ("manifest", "quiet", "kernel")


def _typed(args, names):
    return {name: (type(getattr(args, name)).__name__, getattr(args, name))
            for name in names}


@pytest.mark.parametrize("command", ["run", "fleet", "serve"])
def test_engine_options_parse_alike_on_every_front(command):
    parser = build_parser()
    given = parser.parse_args([
        command, "--jobs", "3", "--timeout", "5", "--retries", "0",
        "--max-rebuilds", "1", "--no-cache", "--cache-dir", "D",
    ])
    assert _typed(given, ENGINE_OPTIONS) == {
        "jobs": ("int", 3), "cache_dir": ("str", "D"),
        "no_cache": ("bool", True), "timeout": ("float", 5.0),
        "retries": ("int", 0), "max_rebuilds": ("int", 1),
        "chaos": ("NoneType", None),
    }
    defaults = parser.parse_args([command])
    assert _typed(defaults, ENGINE_OPTIONS) == {
        "jobs": ("NoneType", None), "cache_dir": ("NoneType", None),
        "no_cache": ("bool", False), "timeout": ("NoneType", None),
        "retries": ("int", 1), "max_rebuilds": ("int", 2),
        "chaos": ("NoneType", None),
    }
    if command != "serve":
        assert _typed(defaults, RUN_OPTIONS) == {
            "manifest": ("NoneType", None), "quiet": ("bool", False),
            "kernel": ("NoneType", None),
        }


def test_run_single_experiment(tmp_path, capsys):
    code = main(["run", "table2", "--scale", "1.0", "--jobs", "1",
                 "--cache-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "1 unit(s): 1 ok" in out
    assert "manifest:" in out


def test_run_unknown_experiment_errors(tmp_path, capsys):
    code = main(["run", "no-such-experiment", "--cache-dir", str(tmp_path)])
    assert code == 2
    assert "no-such-experiment" in capsys.readouterr().err


def test_run_second_invocation_is_cache_replay(tmp_path, capsys):
    argv = ["run", "table2", "fig4", "--scale", "0.05", "--jobs", "1",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    assert "2 miss(es)" in capsys.readouterr().out
    assert main(argv) == 0
    assert "2 cache hit(s)" in capsys.readouterr().out


def test_run_seed_sweep_and_output(tmp_path, capsys):
    report = tmp_path / "report.txt"
    code = main(["run", "fig4", "--scale", "0.05", "--jobs", "1",
                 "--seed", "1", "--seed", "2",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--output", str(report), "--quiet"])
    assert code == 0
    assert "2 unit(s): 2 ok" in capsys.readouterr().out
    assert report.read_text().count("Figure 4") == 2


def test_run_manifest_written_where_asked(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    assert main(["run", "table2", "--scale", "1.0", "--jobs", "1",
                 "--cache-dir", str(tmp_path), "--no-cache",
                 "--manifest", str(manifest), "--quiet"]) == 0
    capsys.readouterr()
    from repro.engine import read_manifest

    records = read_manifest(manifest)
    assert [r["record"] for r in records] == ["run", "unit"]
    assert records[1]["cache"] == "off"


def test_run_keeps_completed_reports_when_one_fails(tmp_path, capsys,
                                                    monkeypatch):
    from repro.experiments.base import Experiment
    from repro.experiments.registry import _EXPERIMENTS

    def explode(scale=1.0, seed=None):
        raise RuntimeError("mid-run crash")

    monkeypatch.setitem(_EXPERIMENTS, "zz-broken", Experiment(
        experiment_id="zz-broken", title="Broken", paper_ref="-", run=explode,
    ))
    report = tmp_path / "report.txt"
    code = main(["run", "table2", "zz-broken", "--scale", "1.0", "--jobs", "1",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--output", str(report), "--quiet"])
    assert code == 1
    captured = capsys.readouterr()
    assert "1 failed" in captured.out
    assert "mid-run crash" in captured.err
    # the completed prefix survived in the streamed output file
    assert "manufacturer specifications" in report.read_text()


def test_run_rejects_bad_scale(tmp_path):
    for bad in ("0", "1.5", "-0.1", "banana"):
        with pytest.raises(SystemExit):
            main(["run", "table2", "--scale", bad,
                  "--cache-dir", str(tmp_path)])


def test_experiment_rejects_bad_scale():
    with pytest.raises(SystemExit):
        main(["experiment", "table2", "--scale", "0"])


def test_run_all_rejects_bad_scale(tmp_path):
    with pytest.raises(SystemExit):
        main(["run", "--all", "--scale", "2", "--cache-dir", str(tmp_path)])


def test_run_output_streams_reports(tmp_path, capsys):
    report = tmp_path / "report.txt"
    assert main(["run", "table2", "table1", "--scale", "1.0", "--jobs", "1",
                 "--no-cache", "--manifest", str(tmp_path / "m.jsonl"),
                 "--output", str(report)]) == 0
    text = report.read_text()
    # reports land in request order; stdout carries progress, not reports
    assert text.index("== table2:") < text.index("== table1:")
    assert "manufacturer specifications" not in capsys.readouterr().out


def test_cache_stats_and_clear(tmp_path, capsys):
    assert main(["run", "table2", "--scale", "1.0", "--jobs", "1",
                 "--cache-dir", str(tmp_path), "--quiet"]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    stats_out = capsys.readouterr().out
    assert "entries" in stats_out
    assert "1" in stats_out
    assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
    assert "removed 1" in capsys.readouterr().out


def test_cache_stats_on_never_created_dir(tmp_path, capsys):
    missing = tmp_path / "never" / "created"
    assert not missing.exists()
    assert main(["cache", "stats", "--cache-dir", str(missing)]) == 0
    out = capsys.readouterr().out
    assert "entries      0" in out
    assert not missing.exists()  # stats must not create the cache either


# -- observability: repro run --observe ------------------------------------


def _observe(tmp_path, *argv: str) -> int:
    return main(["run", *argv, "--jobs", "1", "--quiet",
                 "--manifest", str(tmp_path / "m.jsonl"),
                 "--observe", str(tmp_path / "obs")])


def _unit_records(manifest) -> list[dict]:
    from repro.engine import read_manifest

    return [r for r in read_manifest(manifest) if r["record"] == "unit"]


def test_run_with_observability_artifacts(tmp_path, capsys):
    observed = tmp_path / "obs"
    code = _observe(tmp_path, "fig4", "--scale", "0.05",
                    "--cache-dir", str(tmp_path / "cache"))
    assert code == 0
    capsys.readouterr()
    [trace] = observed.glob("*.trace.json")
    [metrics] = observed.glob("*.metrics.json")
    [layers] = observed.glob("*.layers.txt")
    json.loads(trace.read_text())
    runs = json.loads(metrics.read_text())["runs"]
    # One process track per run, whose layer slices sum to that run's
    # layer_breakdown bit for bit.
    from repro.obs.events import read_chrome_layer_totals

    per_track = read_chrome_layer_totals(trace)
    assert runs and len(per_track) == len(runs)
    for totals, run in zip(per_track, runs):
        reported = run["layer_breakdown_latency_s"]
        for name in set(totals) | set(reported):
            assert totals.get(name, 0.0) == reported.get(name, 0.0), name
    # One attribution table per run.
    assert layers.read_text().count(" measured ops\n") == len(runs)
    # The manifest references all three artifacts on the unit record.
    [unit] = _unit_records(tmp_path / "m.jsonl")
    assert unit["artifacts"] == {"trace": str(trace), "metrics": str(metrics),
                                 "layers": str(layers)}


def test_run_observed_recomputes_instead_of_cache_replay(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["run", "fig4", "--scale", "0.05", "--jobs", "1",
                 "--cache-dir", cache_dir, "--quiet"]) == 0
    capsys.readouterr()
    assert _observe(tmp_path, "fig4", "--scale", "0.05",
                    "--cache-dir", cache_dir) == 0
    out = capsys.readouterr().out
    assert "0 cache hit(s)" in out  # replay has nothing to record
    assert list((tmp_path / "obs").glob("*.trace.json"))


@pytest.fixture(scope="module")
def observed_table4(tmp_path_factory):
    """One observed ``repro run table4 --scale 0.02``, shared: its exit
    code, stderr, report and artifacts, how many times it called
    ``Simulator.run``, and the unit's observability session."""
    import contextlib
    import io
    from types import SimpleNamespace

    import repro.obs
    from repro.core.simulator import Simulator

    root = tmp_path_factory.mktemp("observed-table4")
    calls = []
    sessions = []
    run = Simulator.run

    def counting_run(self, *args, **kwargs):
        calls.append(1)
        return run(self, *args, **kwargs)

    class RecordedSession(repro.obs.ObservabilitySession):
        def __init__(self) -> None:
            super().__init__()
            sessions.append(self)

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        patch.setattr(Simulator, "run", counting_run)
        patch.setattr(repro.obs, "ObservabilitySession", RecordedSession)
        code = _observe(root, "table4", "--scale", "0.02", "--no-cache",
                        "--output", str(root / "observed.txt"))
    [session] = sessions
    [unit] = _unit_records(root / "m.jsonl")
    artifacts = {kind: Path(path) for kind, path in unit["artifacts"].items()}
    return SimpleNamespace(
        code=code, err=err.getvalue(), report=root / "observed.txt",
        calls=len(calls), session=session, artifacts=artifacts,
        runs=json.loads(artifacts["metrics"].read_text())["runs"],
    )


def test_inspect_healthy_run_keeps_stderr_empty(observed_table4):
    # The per-layer report is the unit's layers file, one table per
    # simulation; a run whose checks pass writes nothing on stderr.
    assert observed_table4.code == 0
    assert observed_table4.err == ""
    layers = observed_table4.artifacts["layers"].read_text()
    assert layers.startswith("run 0: mac on ")
    assert layers.count("energy J") == len(observed_table4.runs)


def test_inspect_unknown_experiment_exits_2(capsys):
    # inspect, trace, metrics and profile are gone: argparse rejects each
    # as an invalid command, with exit 2 and nothing on stdout.
    for command in ("inspect", "trace", "metrics", "profile"):
        with pytest.raises(SystemExit) as exited:
            main([command, "table4"])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"invalid choice: '{command}'" in captured.err


def test_profile_command_rejects_unknown_experiment(tmp_path, capsys):
    # Profiling is cProfile around ``repro run`` (python -m cProfile -o
    # out.prof -m repro run <id> --jobs 1 --no-cache).  An unknown
    # experiment is rejected before any unit runs, and the profile
    # still reads back.
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    code = profiler.runcall(main, ["run", "not-an-experiment", "--jobs", "1",
                                   "--no-cache", "--manifest",
                                   str(tmp_path / "m.jsonl")])
    assert code == 2
    _assert_one_error_line(capsys, "unknown experiment 'not-an-experiment'")
    profiler.dump_stats(tmp_path / "out.prof")
    profiled = {name for _file, _line, name
                in pstats.Stats(str(tmp_path / "out.prof")).stats}
    assert "cmd_run" in profiled
    assert "run_unit_inline" not in profiled


def test_trace_command_unknown_experiment(tmp_path, capsys):
    assert _observe(tmp_path, "not-an-experiment") == 2
    _assert_one_error_line(capsys, "unknown experiment 'not-an-experiment'")
    assert not (tmp_path / "obs").exists()


def test_observe_attribution_mismatch_fails_the_unit(tmp_path, capsys,
                                                     monkeypatch):
    from repro.obs.session import ObservabilitySession

    end_run = ObservabilitySession.end_run

    def skewed_end_run(self, result=None):
        # Run 3 loses a sliver of device latency between the slices and
        # the report.
        if self._run_index == 3:
            self._layer_sums["device"] += 1e-9
        return end_run(self, result)

    monkeypatch.setattr(ObservabilitySession, "end_run", skewed_end_run)
    code = _observe(tmp_path, "table4", "--scale", "0.02", "--no-cache")
    assert code == 1
    err = capsys.readouterr().err
    assert "FAILED table4 s=0.02" in err
    assert "run 3 (mac on " in err
    assert "layer slices differ from layer_breakdown" in err
    # The failed unit still wrote its artifacts, and the manifest says so.
    [unit] = _unit_records(tmp_path / "m.jsonl")
    assert unit["outcome"] == "error"
    assert unit["retries"] == 0  # a failed check is not retried
    assert "run 3 (mac on " in unit["error"]
    assert set(unit["artifacts"]) == {"trace", "metrics", "layers"}
    for path in unit["artifacts"].values():
        assert Path(path).is_file()


def test_trace_command_writes_valid_chrome_trace(observed_table4):
    # One process track per simulation, whose layer slices sum to that
    # run's layer_breakdown bit for bit.
    from repro.obs.events import read_chrome_layer_totals

    trace = observed_table4.artifacts["trace"]
    assert json.loads(trace.read_text())["traceEvents"]
    per_track = read_chrome_layer_totals(trace)
    assert len(per_track) == len(observed_table4.runs) == 21
    for totals, run in zip(per_track, observed_table4.runs):
        reported = run["layer_breakdown_latency_s"]
        for name in set(totals) | set(reported):
            assert totals.get(name, 0.0) == reported.get(name, 0.0), name
        assert all(total > 0 for total in totals.values())


def test_metrics_command_writes_json_and_prometheus(observed_table4):
    # One metrics run per simulation, each in exact agreement and with a
    # sampled series.  The unit's registry holds its last simulation,
    # and its Prometheus exposition counts what that run's JSON counts.
    runs = observed_table4.runs
    assert all(run["agreement_max_abs_diff"] == 0.0 for run in runs)
    assert all(run["metrics"]["series"] for run in runs)
    text = observed_table4.session.registry.to_prometheus()
    assert "# TYPE repro_ops_total counter" in text
    assert "repro_response_time_s_bucket" in text
    values = dict(line.rsplit(" ", 1) for line in text.splitlines()
                  if not line.startswith("#"))
    last = runs[-1]
    assert (float(values["repro_ops_total"])
            == last["metrics"]["instruments"]["ops_total"]["value"]
            == last["totals"]["ops"])


def test_observe_checks_every_simulation_and_keeps_the_report(
        observed_table4, tmp_path):
    assert len(observed_table4.runs) == observed_table4.calls == 21
    plain_report = tmp_path / "plain.txt"
    assert main(["run", "table4", "--scale", "0.02", "--jobs", "1",
                 "--no-cache", "--quiet", "--output", str(plain_report),
                 "--manifest", str(tmp_path / "plain.jsonl")]) == 0
    assert observed_table4.report.read_bytes() == plain_report.read_bytes()


def test_artifact_stems_are_distinct_per_unit():
    from repro.engine import WorkUnit
    from repro.engine.scheduler import _artifact_stem

    # Plain units keep their names.
    assert _artifact_stem(WorkUnit("table4", scale=0.02)) == "table4-s0.02"
    assert (_artifact_stem(WorkUnit("table4", scale=0.02, seed=3))
            == "table4-s0.02-seed3")
    # Units that differ only in kwargs or kernel do not share a path.
    shards = [WorkUnit("fleet", scale=0.02, seed=3,
                       kwargs=(("shard", shard), ("shards", 4)))
              for shard in range(4)]
    kernels = [WorkUnit("table4", scale=0.02, kernel=kernel)
               for kernel in (None, "batched", "vector")]
    stems = [_artifact_stem(unit) for unit in shards + kernels]
    assert len(set(stems)) == len(stems)
    assert all(stem.startswith("fleet-s0.02-seed3-") for stem in stems[:4])


def test_observed_fleet_shards_get_one_artifact_set_each(tmp_path, capsys):
    assert main(["fleet", "--devices", "8", "--seed", "3", "--scale", "0.02",
                 "--ops", "200", "--shards", "4", "--jobs", "1", "--quiet",
                 "--cache-dir", str(tmp_path / "c"),
                 "--manifest", str(tmp_path / "f.jsonl")]) == 0
    assert main(["run", "--resume", str(tmp_path / "f.jsonl"), "--jobs", "1",
                 "--quiet", "--manifest", str(tmp_path / "r.jsonl"),
                 "--observe", str(tmp_path / "obs")]) == 0
    units = _unit_records(tmp_path / "r.jsonl")
    paths = [path for unit in units for path in unit["artifacts"].values()]
    assert len(units) == 4 and len(set(paths)) == 12
    assert len(list((tmp_path / "obs").iterdir())) == 12


def test_observed_units_leave_the_result_cache_alone(tmp_path, capsys):
    # Observation forces the batched path, so an observed vector unit's
    # result must never answer for the vector unit's cache key.
    cache_dir = str(tmp_path / "cache")
    args = ["table4", "--scale", "0.02", "--kernel", "vector",
            "--cache-dir", cache_dir]
    assert _observe(tmp_path, *args) == 0
    capsys.readouterr()
    [unit] = _unit_records(tmp_path / "m.jsonl")
    assert unit["cache"] == "off"
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    assert "entries      0" in capsys.readouterr().out
    assert main(["run", *args, "--jobs", "1", "--quiet",
                 "--manifest", str(tmp_path / "again.jsonl")]) == 0
    assert "0 cache hit(s), 1 miss(es)" in capsys.readouterr().out


def test_dropped_events_warn_once_per_unit_under_jobs(tmp_path, capfd,
                                                      monkeypatch):
    import repro.obs

    class SmallRing(repro.obs.ObservabilitySession):
        def __init__(self) -> None:
            super().__init__(trace_capacity=500)

    # The engine's pool forks (the default start method on Linux) after
    # the patch, so its workers observe with the small ring too.
    monkeypatch.setattr(repro.obs, "ObservabilitySession", SmallRing)
    assert main(["run", "table4", "fig4", "--scale", "0.02", "--jobs", "2",
                 "--no-cache", "--quiet", "--observe", str(tmp_path / "obs"),
                 "--manifest", str(tmp_path / "m.jsonl")]) == 0
    warnings = [line for line in capfd.readouterr().err.splitlines()
                if line.startswith("warning: ")]
    assert len(warnings) == 2
    for unit, line in zip(sorted(["table4", "fig4"]), sorted(warnings)):
        assert line.startswith(f"warning: {unit} s=0.02: the event ring "
                               f"dropped ")
        assert line.endswith("the trace keeps only the newest 500")
