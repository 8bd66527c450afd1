"""The ``python -m repro`` command-line interface."""

import json

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


def test_malformed_trace_prints_one_line_and_exits_2(tmp_path, capsys):
    source = tmp_path / "bad.blk"
    source.write_text("garbage line\n")
    argv = ["import", str(source), "--format", "blktrace",
            "-o", str(tmp_path / "out.trace")]
    assert main(argv) == 2
    _assert_one_error_line(capsys, "expected >= 7 fields")


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


def test_profile_command_writes_artifact(tmp_path, capsys):
    import json

    artifact = tmp_path / "reports" / "profile.json"
    assert main(["profile", "table3", "--scale", "0.05", "--top", "3",
                 "-o", str(artifact)]) == 0
    out = capsys.readouterr().out
    assert "time share by layer" in out
    assert "top 3 functions" in out
    report = json.loads(artifact.read_text())
    assert report["experiment"] == "table3"
    assert set(report["phases"]) == {"cold_run_s", "warm_run_s",
                                     "profiled_run_s"}
    assert report["layers"], "per-subpackage shares must not be empty"
    assert len(report["top_functions"]) <= 3
    shares = {row["name"] for row in report["modules"]}
    assert any(name.startswith("traces") for name in shares)


def test_profile_command_rejects_unknown_experiment(capsys):
    assert main(["profile", "not-an-experiment"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


# -- observability: repro trace / repro metrics / run artifacts ------------


def test_trace_command_writes_valid_chrome_trace(tmp_path, capsys):
    import json

    out = tmp_path / "t.json"
    code = main(["trace", "exp_table3", "--scale", "0.05",
                 "--trace-out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "agreement ok" in stdout
    assert "MISMATCH" not in stdout
    data = json.loads(out.read_text())  # round-trips json.loads
    assert data["traceEvents"]
    # Per-layer durations in the artifact agree with the reports to 1e-9
    # (they are the collector's exact floats, so in fact bit-for-bit).
    from repro.obs.events import read_chrome_layer_totals

    per_run = read_chrome_layer_totals(out)
    assert len(per_run) == 3  # one probe per device class
    assert all(total > 0 for run in per_run for total in run.values())


def test_trace_command_jsonl_sidecar(tmp_path, capsys):
    out = tmp_path / "t.json"
    side = tmp_path / "t.jsonl"
    assert main(["trace", "fig2", "--scale", "0.03",
                 "--trace-out", str(out), "--jsonl-out", str(side)]) == 0
    from repro.obs.events import iter_jsonl

    kinds = {record["kind"] for record in iter_jsonl(side)}
    assert {"run", "request", "layer"} <= kinds


def test_trace_command_unknown_experiment(tmp_path, capsys):
    code = main(["trace", "nope", "--trace-out", str(tmp_path / "t.json")])
    assert code == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_metrics_command_writes_json_and_prometheus(tmp_path, capsys):
    import json

    out = tmp_path / "m.json"
    prom = tmp_path / "m.prom"
    code = main(["metrics", "table3", "--scale", "0.05",
                 "--metrics-out", str(out), "--prom-out", str(prom)])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["runs"]) == 3
    run = data["runs"][0]
    assert run["agreement_max_abs_diff"] == 0.0
    assert run["metrics"]["series"], "time-series must not be empty"
    text = prom.read_text()
    assert "# TYPE repro_ops_total counter" in text
    assert "repro_response_time_s_bucket" in text


def test_run_with_observability_artifacts(tmp_path, capsys):
    import json

    traces = tmp_path / "traces"
    metrics = tmp_path / "metrics"
    code = main(["run", "fig4", "--scale", "0.05", "--jobs", "1",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--manifest", str(tmp_path / "m.jsonl"),
                 "--trace-out", str(traces),
                 "--metrics-out", str(metrics), "--quiet"])
    assert code == 0
    capsys.readouterr()
    trace_files = list(traces.glob("*.trace.json"))
    metric_files = list(metrics.glob("*.metrics.json"))
    assert len(trace_files) == 1
    assert len(metric_files) == 1
    json.loads(trace_files[0].read_text())
    runs = json.loads(metric_files[0].read_text())["runs"]
    # One process track per run, whose layer slices sum to that run's
    # layer_breakdown bit for bit.
    from repro.obs.events import read_chrome_layer_totals

    per_track = read_chrome_layer_totals(trace_files[0])
    assert runs and len(per_track) == len(runs)
    for totals, run in zip(per_track, runs):
        reported = run["layer_breakdown_latency_s"]
        for name in set(totals) | set(reported):
            assert totals.get(name, 0.0) == reported.get(name, 0.0), name
    # The manifest references both artifacts on the unit record.
    from repro.engine import read_manifest

    unit = [r for r in read_manifest(tmp_path / "m.jsonl")
            if r["record"] == "unit"][0]
    assert unit["artifacts"] == {"trace": str(trace_files[0]),
                                 "metrics": str(metric_files[0])}


def test_run_observed_recomputes_instead_of_cache_replay(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["run", "fig4", "--scale", "0.05", "--jobs", "1",
                 "--cache-dir", cache_dir, "--quiet"]) == 0
    capsys.readouterr()
    assert main(["run", "fig4", "--scale", "0.05", "--jobs", "1",
                 "--cache-dir", cache_dir, "--quiet",
                 "--trace-out", str(tmp_path / "traces")]) == 0
    out = capsys.readouterr().out
    assert "0 cache hit(s)" in out  # replay has nothing to record
    assert (tmp_path / "traces").glob("*.trace.json")


# -- repro inspect: report on stdout, diagnostics on stderr ----------------


def test_inspect_healthy_run_keeps_stderr_empty(capsys):
    assert main(["inspect", "table4", "--scale", "0.03"]) == 0
    captured = capsys.readouterr()
    assert "layer" in captured.out
    assert captured.err == ""


def test_inspect_routes_mismatch_diagnostics_to_stderr(capsys, monkeypatch):
    from repro.experiments.base import ExperimentResult, Table

    report = ExperimentResult(
        experiment_id="inspect:table4",
        title="Per-layer attribution",
        tables=(Table(title="probe", headers=("layer",), rows=(("dram",),)),),
        notes=("a note",),
        diagnostics=(
            "ATTRIBUTION MISMATCH: a probe's per-layer components do not "
            "sum to its reported totals",
            "probe x: latency 1.0 vs 2.0 (diff -1)",
        ),
    )
    monkeypatch.setattr(
        "repro.experiments.inspection.inspect_experiment",
        lambda experiment_id, scale, seed: (report, False),
    )
    code = main(["inspect", "table4"])
    assert code == 1
    captured = capsys.readouterr()
    # Report (tables, notes) on stdout; failure detail only on stderr.
    assert "probe" in captured.out
    assert "MISMATCH" not in captured.out
    assert "ATTRIBUTION MISMATCH" in captured.err
    assert "diff -1" in captured.err


def test_inspect_unknown_experiment_exits_2(capsys):
    assert main(["inspect", "not-an-experiment"]) == 2
    captured = capsys.readouterr()
    assert "unknown experiment" in captured.err
    assert captured.out == ""
