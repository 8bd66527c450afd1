"""Fitted-workload models: acceptance, determinism, engine invariance.

The acceptance criterion from the fitting design (DESIGN.md section 4j):
every bundled workload, fitted and regenerated at twice its length with
a fresh seed, must pass its own Table 3 conformance report.  On top of
that the model must be a *reproducible artifact* — the same model file
and seed produce a byte-identical trace in any process, and running the
``fitted_replay`` experiment through the engine gives the same result at
any ``--jobs`` level.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import ResultCache, execute
from repro.engine.unit import decompose
from repro.errors import ConfigurationError, TraceError
from repro.traces.fitting import FittedWorkload, fit_trace
from repro.traces.io import save_trace
from repro.traces.stats import compute_statistics

REPO_ROOT = Path(__file__).parent.parent

BUNDLED = ("mac", "dos", "hp", "synth")

#: Fit once per workload, reuse across tests (fitting runs calibration
#: probes; no need to pay for them repeatedly).
_FITTED: dict[str, FittedWorkload] = {}


def _source_trace(workload: str):
    if workload == "synth":
        from repro.traces.synthetic import SyntheticWorkload

        return SyntheticWorkload().generate(n_ops=4000, seed=7)
    from repro.traces.workloads import workload_by_name

    return workload_by_name(workload).generate(seed=7, n_ops=4000)


def _fitted(workload: str) -> FittedWorkload:
    if workload not in _FITTED:
        _FITTED[workload] = fit_trace(
            _source_trace(workload), name=f"{workload}-fitted", source=workload
        )
    return _FITTED[workload]


# -- acceptance: every bundled workload round-trips through fitting --------


@pytest.mark.parametrize("workload", BUNDLED)
def test_bundled_workload_fit_conforms_at_2x(workload):
    report = _fitted(workload).verify(seed=3, length=2.0)
    assert report.ok, (
        f"{workload}: 2x extension violates its Table 3 row:\n"
        + "\n".join(report.problems())
    )


@pytest.mark.parametrize("workload", BUNDLED)
def test_fitted_reference_matches_source_statistics(workload):
    model = _fitted(workload)
    source_stats = compute_statistics(_source_trace(workload))
    assert model.reference.n_records == source_stats.n_records
    assert model.reference.fraction_reads == source_stats.fraction_reads


# -- determinism: same model + seed => byte-identical trace ----------------


def test_generate_is_deterministic_in_process():
    model = _fitted("mac")
    one = model.generate(seed=5, n_ops=1500)
    two = model.generate(seed=5, n_ops=1500)
    assert [
        (r.time, r.op, r.file_id, r.offset, r.size) for r in one
    ] == [(r.time, r.op, r.file_id, r.offset, r.size) for r in two]
    other = model.generate(seed=6, n_ops=1500)
    assert [r.time for r in one] != [r.time for r in other]


_SUBPROCESS_SCRIPT = """
import sys
from repro.traces.fitting import FittedWorkload
from repro.traces.io import save_trace
model = FittedWorkload.load(sys.argv[1])
save_trace(model.generate(seed=5, n_ops=1500), sys.argv[2])
"""


def _generate_in_subprocess(model_path: Path, out_path: Path) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT,
         str(model_path), str(out_path)],
        check=True,
        env=env,
        cwd=REPO_ROOT,
    )


def test_generate_is_byte_identical_across_processes(tmp_path):
    model = _fitted("mac")
    model_path = tmp_path / "mac.json"
    model.save(model_path)

    local = tmp_path / "local.txt"
    save_trace(
        FittedWorkload.load(model_path).generate(seed=5, n_ops=1500), local
    )
    child_a = tmp_path / "a.txt"
    child_b = tmp_path / "b.txt"
    _generate_in_subprocess(model_path, child_a)
    _generate_in_subprocess(model_path, child_b)

    reference = local.read_bytes()
    assert child_a.read_bytes() == reference
    assert child_b.read_bytes() == reference


# -- model artifact round-trip and failure modes ---------------------------


def test_model_roundtrip_preserves_content(tmp_path):
    model = _fitted("dos")
    path = tmp_path / "dos.json"
    model.save(path)
    loaded = FittedWorkload.load(path)
    assert loaded.to_dict() == model.to_dict()
    assert loaded.content_digest() == model.content_digest()
    assert loaded.spec == model.spec


def test_load_missing_model_is_trace_error(tmp_path):
    with pytest.raises(TraceError, match="no fitted-workload model"):
        FittedWorkload.load(tmp_path / "absent.json")


def test_load_invalid_json_is_trace_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(TraceError, match="not valid JSON"):
        FittedWorkload.load(path)


def test_load_wrong_format_is_trace_error(tmp_path):
    model = _fitted("dos")
    path = tmp_path / "alien.json"
    data = model.to_dict()
    data["format"] = "something-else"
    import json

    path.write_text(json.dumps(data))
    with pytest.raises(TraceError, match="format"):
        FittedWorkload.load(path)


def test_load_wrong_version_is_trace_error(tmp_path):
    model = _fitted("dos")
    path = tmp_path / "future.json"
    data = model.to_dict()
    data["version"] = 99
    import json

    path.write_text(json.dumps(data))
    with pytest.raises(TraceError, match="version"):
        FittedWorkload.load(path)


def test_content_digest_tracks_content(tmp_path):
    mac = _fitted("mac")
    dos = _fitted("dos")
    assert mac.content_digest() != dos.content_digest()


def test_fit_rejects_degenerate_trace():
    from repro.traces.record import Operation, TraceRecord
    from repro.traces.trace import Trace

    tiny = Trace(
        "tiny",
        [TraceRecord(time=0.0, op=Operation.READ, file_id=1, offset=0,
                     size=1024)],
    )
    with pytest.raises(TraceError, match="need >= 2 records"):
        fit_trace(tiny)


@pytest.mark.parametrize("length", [0.0, -1.0, math.nan, math.inf, 1e308])
def test_verify_rejects_a_length_without_a_finite_positive_extension(length):
    with pytest.raises(ConfigurationError, match="extension length"):
        _fitted("mac").verify(length=length)


def test_extension_ops_scales_the_source_length():
    model = _fitted("mac")
    assert model.extension_ops(2.0) == 2 * model.reference.n_records
    assert model.extension_ops(1e-9) == 2  # at least two records


# -- engine invariance: fitted_replay is --jobs-independent ----------------


def _run_fitted_replay(model_path: Path, jobs: int, cache_root: Path):
    units = decompose(
        ["fitted_replay"],
        scale=0.05,
        kwargs={"model": f"fitted:{model_path}"},
    )
    outcomes = execute(units, jobs=jobs, cache=ResultCache(cache_root))
    assert len(outcomes) == 1
    assert outcomes[0].error is None, outcomes[0].error
    return outcomes[0].result


def test_fitted_replay_result_is_jobs_invariant(tmp_path):
    model_path = tmp_path / "mac.json"
    _fitted("mac").save(model_path)
    serial = _run_fitted_replay(model_path, 1, tmp_path / "cache1")
    pooled = _run_fitted_replay(model_path, 2, tmp_path / "cache2")
    assert serial.render() == pooled.render()
    # And the replay itself must pass its conformance gate.
    verdicts = {row[-1] for row in serial.tables[0].rows}
    assert verdicts == {"ok"}
