"""Unit tests for the observability primitives (tracer + registry)."""

from __future__ import annotations

import json
import tempfile
import tracemalloc
from pathlib import Path
from typing import Any

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.obs.events import (
    EVENT_KINDS,
    EventTracer,
    read_chrome_layer_totals,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_bounds,
    sanitize_metric_name,
)


# -- EventTracer ---------------------------------------------------------------


def test_tracer_records_events_in_order():
    tracer = EventTracer(capacity=16)
    tracer.emit("run", 0.0, 0.0, "t|d", 0.0)
    tracer.emit("layer", 1.0, 0.5, "dram", 0.0, 0.25)
    tracer.emit("layer", 1.0, 2.0, "device", 0.0, 1.0)
    assert len(tracer) == 3
    assert [event[0] for event in tracer.events()] == ["run", "layer", "layer"]
    assert tracer.counts() == {"run": 1, "layer": 2}
    assert tracer.layer_latency_totals() == {"dram": 0.5, "device": 2.0}


def test_tracer_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        EventTracer(capacity=0)


@given(
    capacity=st.integers(min_value=1, max_value=64),
    n=st.integers(min_value=0, max_value=300),
)
def test_ring_never_exceeds_bound(capacity, n):
    """The buffer length can never exceed the configured capacity."""
    tracer = EventTracer(capacity=capacity)
    for index in range(n):
        tracer.emit("request", float(index), 0.0, "read")
        assert len(tracer) <= capacity
    assert tracer.emitted == n
    assert tracer.dropped == max(0, n - capacity)
    assert len(tracer) == min(n, capacity)
    # Oldest events are the ones evicted.
    first = next(tracer.events(), None)
    if first is not None:
        assert first[1] == float(max(0, n - capacity))


def test_rollback_discards_past_the_mark():
    tracer = EventTracer()
    tracer.emit("run", 0.0, 0.0, "t|d", 0.0)
    mark = tracer.emitted
    tracer.emit("layer", 0.0, 1.0, "dram")
    tracer.emit("layer", 0.0, 2.0, "device")
    removed = tracer.rollback(mark)
    assert removed == 2
    assert tracer.emitted == mark
    assert tracer.counts() == {"run": 1}
    # A second mark/rollback pair composes.
    tracer.emit("layer", 0.0, 3.0, "sram")
    tracer.rollback(mark)
    assert tracer.counts() == {"run": 1}


def test_layer_totals_scoped_to_a_run():
    tracer = EventTracer()
    tracer.emit("run", 0.0, 0.0, "a|d", 0.0)
    tracer.emit("layer", 0.0, 1.0, "device")
    tracer.emit("run", 0.0, 0.0, "b|d", 1.0)
    tracer.emit("layer", 0.0, 4.0, "device")
    assert tracer.layer_latency_totals(since_run=0) == {"device": 1.0}
    assert tracer.layer_latency_totals(since_run=1) == {"device": 4.0}
    assert tracer.layer_latency_totals() == {"device": 5.0}


def test_chrome_export_round_trips_json(tmp_path):
    tracer = EventTracer()
    tracer.emit("run", 0.0, 0.0, "mac|disk", 0.0)
    tracer.emit("request", 0.0, 1.5, "write")
    tracer.emit("layer", 0.0, 1.0, "device", 0.0, 2.0)
    tracer.emit("cleaning", 0.5, 0.25, "flash")
    path = tracer.write_chrome(tmp_path / "trace.json")
    data = json.loads(path.read_text())  # must parse cleanly
    assert data["otherData"]["emitted"] == 4
    events = data["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    # One process track per run, µs timestamps, exact args.
    assert all(e["pid"] == 1 for e in spans)
    layer = next(e for e in spans if e["cat"] == "layer")
    assert layer["name"] == "device"
    assert layer["dur"] == 1.0 * 1e6
    assert layer["args"] == {"latency_s": 1.0, "energy_j": 2.0}
    device = next(e for e in spans if e["cat"] == "cleaning")
    assert device["args"]["device"] == "flash"
    assert read_chrome_layer_totals(path) == [{"device": 1.0}]


def test_chrome_layer_totals_keep_tracks_without_slices(tmp_path):
    """One dict per process track, so the list pairs with the runs."""
    tracer = EventTracer()
    tracer.emit("run", 0.0, 0.0, "mac|disk", 0.0)
    tracer.emit("request", 0.0, 0.0, "delete")
    tracer.emit("run", 0.0, 0.0, "mac|flash", 1.0)
    tracer.emit("layer", 0.0, 1.0, "device", 0.0, 2.0)
    path = tracer.write_chrome(tmp_path / "trace.json")
    assert read_chrome_layer_totals(path) == [{}, {"device": 1.0}]


# -- Chrome export: the streamed writer against the document oracle ------------


def _chrome_oracle(tracer: EventTracer) -> dict[str, Any]:
    """The Chrome document as nested dicts, the form ``json.dumps`` takes.

    ``EventTracer.write_chrome`` must write exactly
    ``json.dumps(_chrome_oracle(tracer))``.
    """
    trace_events: list[dict[str, Any]] = []
    pid = 0
    tids: dict[str, int] = {}

    def tid_for(label: str) -> int:
        tid = tids.get(label)
        if tid is None:
            tid = len(tids)
            tids[label] = tid
            trace_events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": label},
            })
        return tid

    for kind, t0, dur, name, a, b in tracer.events():
        if kind == "run":
            pid = int(a) + 1
            tids = {}
            trace_events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": name},
            })
            continue
        ts = t0 * 1e6
        if kind == "cache":
            trace_events.append({
                "name": "dram-cache", "ph": "C", "ts": ts, "pid": pid,
                "tid": tid_for("cache"),
                "args": {"hits": int(a), "misses": int(b)},
            })
            continue
        if kind == "request":
            track, args, label = "requests", {"response_s": dur}, name
        elif kind == "layer":
            track = f"layer:{name}"
            args = {"latency_s": dur, "energy_j": b}
            label = name
        elif kind == "crash":
            track, args, label = "crash", {"recovery_s": dur}, name
        else:  # spin_up / spin_down / cleaning / erase
            track = "device-events"
            args = {"dur_s": dur, "device": name}
            label = kind
        trace_events.append({
            "name": label,
            "cat": kind, "ph": "X", "ts": ts, "dur": dur * 1e6,
            "pid": pid, "tid": tid_for(track), "args": args,
        })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "emitted": tracer.emitted,
            "dropped": tracer.dropped,
        },
    }


# Numbers that hash alike but render differently (0.0 / -0.0, 1 / 1.0),
# plus everything st.floats() draws: NaN, infinities, subnormals.
_NUMBERS = st.one_of(
    st.floats(),
    st.integers(min_value=-(2 ** 53), max_value=2 ** 53),
    st.sampled_from([0.0, -0.0, 1.0, 1, 0.5, 5e-324]),
)
# ``run`` and ``cache`` payloads pass through int(), so they are finite.
_WHOLE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(2 ** 31), max_value=2 ** 31),
)
_NAMES = st.text(
    st.sampled_from('ab:"\\\x00\x1f\x7f\n\u00e9\u20ac\U0001f600')
    | st.characters(),
    max_size=6,
)


@st.composite
def _event(draw):
    kind = draw(st.sampled_from(EVENT_KINDS))
    payload = _WHOLE if kind in ("run", "cache") else _NUMBERS
    return (kind, draw(_NUMBERS), draw(_NUMBERS), draw(_NAMES),
            draw(payload), draw(payload))


def _written(tracer: EventTracer) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        return tracer.write_chrome(Path(tmp) / "trace.json").read_bytes()


@given(capacity=st.integers(min_value=1, max_value=300),
       events=st.lists(_event(), max_size=300))
@example(capacity=16, events=[
    ("layer", 0.5, 0.0, "device", 0.0, 1.0),  # before the first run marker
    ("run", 0.0, 0.0, 'a"b\\c|d\u00e9', 0.0, 0.0),
    ("request", 0.0, 1.0, "read", 0.0, 0.0),
    ("request", -0.0, 1, "write", 0.0, 0.0),
    ("layer", 1.0, -0.0, "dram", 0.0, 1),
    ("layer", 2.0, 0.0, "dram", 0.0, 1.0),
    ("crash", float("nan"), float("inf"), "power-loss", 0.0, 0.0),
    ("cleaning", 3.0, -float("inf"), "flash", 0.0, 0.0),
    ("cache", 4.0, 0.0, "dram", 3, 1.0),
])
def test_streamed_chrome_equals_the_oracle(capacity, events):
    tracer = EventTracer(capacity=capacity)
    for event in events:
        tracer.emit(*event)
    written = _written(tracer)
    assert written == json.dumps(_chrome_oracle(tracer)).encode("ascii")
    # The float memo is built per export, so a second export is the same.
    assert _written(tracer) == written


def test_observed_unit_artifacts_equal_the_oracle(tmp_path, monkeypatch):
    """A real ``repro run --observe`` unit, byte for byte."""
    import repro.obs
    from repro.engine import WorkUnit
    from repro.engine.scheduler import run_unit_observed

    sessions = []

    class RecordingSession(repro.obs.ObservabilitySession):
        def __init__(self) -> None:
            super().__init__()
            sessions.append(self)

    monkeypatch.setattr(repro.obs, "ObservabilitySession", RecordingSession)
    unit = WorkUnit("table4", scale=0.01, seed=1, kernel="vector")
    _result, artifacts = run_unit_observed(unit, str(tmp_path / "trace"),
                                           str(tmp_path / "metrics"))
    (session,) = sessions
    assert session.tracer.dropped == 0 and len(session.runs) == 21
    trace = Path(artifacts["trace"]).read_text()
    assert trace == json.dumps(_chrome_oracle(session.tracer))
    metrics = Path(artifacts["metrics"]).read_text()
    assert metrics == json.dumps(session.to_json_dict())
    assert Path(artifacts["layers"]).read_text() == session.layer_tables()


def test_chrome_export_memory_is_bounded_by_the_ring(tmp_path):
    """Peak export memory stays well under the size of the file written.

    A sweep replays a few traces, so the ring repeats its numbers; the
    writer streams records in chunks instead of building the document.
    """
    tracer = EventTracer()
    for run in range(20):
        tracer.emit("run", 0.0, 0.0, f"mac|dev{run % 3}", float(run))
        for op in range(3_400):
            t0 = (op % 1_700) * 0.0137
            latency = (op % 211) * 1.3e-4
            tracer.emit("request", t0, latency + 2.5e-5, "read")
            tracer.emit("layer", t0, 2.5e-5, "dram", 0.0, (op % 53) * 1e-6)
            tracer.emit("layer", t0, latency, "device", 0.0, latency * 1.7)
    assert len(tracer) >= 200_000
    path = tmp_path / "trace.json"
    tracemalloc.start()
    try:
        tracer.write_chrome(path)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2


# -- metrics instruments -------------------------------------------------------


def test_counter_accumulates_and_rejects_negatives():
    counter = Counter("ops_total")
    counter.inc()
    counter.inc(2.0)
    assert counter.sample() == 3.0
    with pytest.raises(ValueError):
        counter.inc(-1.0)
    counter.reset()
    assert counter.sample() == 0.0


def test_gauge_reads_bound_callable():
    state = {"value": 5.0}
    gauge = Gauge("queue", fn=lambda: state["value"])
    assert gauge.sample() == 5.0
    state["value"] = 7.0
    assert gauge.sample() == 7.0
    gauge.fn = None
    gauge.set(1.5)
    assert gauge.sample() == 1.5


def test_histogram_buckets_and_sample():
    hist = Histogram("resp", bounds=(1.0, 2.0, 4.0))
    for value in (0.5, 1.5, 3.0, 100.0):
        hist.observe(value)
    sample = hist.sample()
    assert sample["count"] == 4
    assert sample["sum"] == 105.0
    assert sample["counts"] == [1, 1, 1, 1]  # <=1, <=2, <=4, +Inf


def test_exponential_bounds():
    bounds = exponential_bounds(1.0, 2.0, 4)
    assert bounds == (1.0, 2.0, 4.0, 8.0)


def test_sanitize_metric_name():
    assert sanitize_metric_name("ok_name") == "ok_name"
    assert sanitize_metric_name("bad-name.1") == "bad_name_1"


# -- MetricsRegistry -----------------------------------------------------------


def test_registry_dedupes_by_name_and_rejects_kind_change():
    registry = MetricsRegistry()
    counter = registry.counter("ops")
    assert registry.counter("ops") is counter
    with pytest.raises(ValueError):
        registry.gauge("ops")


def test_registry_samples_on_the_op_interval():
    registry = MetricsRegistry(sample_interval_ops=4)
    counter = registry.counter("ops")
    taken = 0
    for op in range(10):
        counter.inc()
        taken += registry.maybe_sample(float(op))
    assert taken == 2  # after ops 4 and 8
    series = registry.to_json_dict()["series"]
    assert [row["t_s"] for row in series] == [3.0, 7.0]
    assert [row["ops"] for row in series] == [4.0, 8.0]


def test_registry_series_is_bounded():
    registry = MetricsRegistry(sample_interval_ops=1, max_samples=3)
    for op in range(10):
        registry.maybe_sample(float(op))
    data = registry.to_json_dict()
    assert len(data["series"]) == 3
    assert data["samples_dropped"] == 7
    assert [row["t_s"] for row in data["series"]] == [7.0, 8.0, 9.0]


def test_registry_reset_keeps_gauge_bindings():
    registry = MetricsRegistry()
    registry.counter("ops").inc(5)
    registry.gauge("queue", fn=lambda: 2.0)
    registry.force_sample(1.0)
    registry.reset()
    assert registry.to_json_dict()["series"] == []
    assert registry.get("ops").sample() == 0.0
    assert registry.get("queue").sample() == 2.0  # fn survives reset


def test_registry_json_export(tmp_path):
    registry = MetricsRegistry(sample_interval_ops=1)
    registry.counter("ops", "operations").inc(3)
    registry.force_sample(0.5)
    path = registry.write_json(tmp_path / "metrics.json")
    data = json.loads(path.read_text())
    assert data["instruments"]["ops"]["kind"] == "counter"
    assert data["series"][0]["ops"] == 3.0


def test_prometheus_exposition_format(tmp_path):
    registry = MetricsRegistry()
    registry.counter("ops_total", "operations").inc(3)
    registry.gauge("queue_s", "queue depth", fn=lambda: 0.5)
    hist = registry.histogram("resp_s", (1.0, 2.0), "responses")
    hist.observe(0.5)
    hist.observe(1.5)
    hist.observe(9.0)
    text = registry.to_prometheus()
    lines = text.splitlines()
    assert "# HELP repro_ops_total operations" in lines
    assert "# TYPE repro_ops_total counter" in lines
    assert "repro_ops_total 3" in lines
    assert "repro_queue_s 0.5" in lines
    # Histogram buckets are cumulative and end with +Inf == _count.
    assert 'repro_resp_s_bucket{le="1"} 1' in lines
    assert 'repro_resp_s_bucket{le="2"} 2' in lines
    assert 'repro_resp_s_bucket{le="+Inf"} 3' in lines
    assert "repro_resp_s_count 3" in lines
    assert "repro_resp_s_sum 11" in lines
    path = registry.write_prometheus(tmp_path / "m.prom")
    assert path.read_text() == text


# -- Histogram quantiles -------------------------------------------------------


def test_histogram_quantile_interpolates_within_bucket():
    hist = Histogram("resp_s", (1.0, 2.0, 4.0))
    for value in (0.5, 1.5, 2.5, 3.5):
        hist.observe(value)
    # rank 2 of 4 falls exactly at the (1, 2] bucket's upper edge.
    assert hist.quantile(0.5) == 2.0
    # p25 lands mid-way through the first bucket (interpolated from 0).
    assert hist.quantile(0.25) == 1.0
    # p100 is the last finite bound even though 3.5 < 4.0.
    assert hist.quantile(1.0) == 4.0


def test_histogram_quantile_empty_and_bounds():
    hist = Histogram("resp_s", (1.0, 2.0))
    assert hist.quantile(0.5) is None
    assert hist.quantiles() == {"p50": None, "p90": None, "p99": None}
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_histogram_quantile_tail_clamps_to_last_bound():
    hist = Histogram("resp_s", (1.0, 2.0))
    hist.observe(100.0)  # lands in the +Inf bucket
    assert hist.quantile(0.5) == 2.0


def test_histogram_quantiles_in_json_export():
    registry = MetricsRegistry()
    hist = registry.histogram("resp_s", (1.0, 2.0, 4.0), "responses")
    for value in (0.5, 1.5, 2.5, 3.5):
        hist.observe(value)
    entry = registry.to_json_dict()["instruments"]["resp_s"]
    assert entry["quantiles"]["p50"] == hist.quantile(0.5)
    assert set(entry["quantiles"]) == {"p50", "p90", "p99"}


def test_histogram_quantiles_in_prometheus_summary_form():
    registry = MetricsRegistry()
    hist = registry.histogram("resp_s", (1.0, 2.0, 4.0), "responses")
    for value in (0.5, 1.5, 2.5, 3.5):
        hist.observe(value)
    lines = registry.to_prometheus().splitlines()
    assert "# TYPE repro_resp_s_quantiles summary" in lines
    assert 'repro_resp_s_quantiles{quantile="0.5"} 2' in lines
    assert any(l.startswith('repro_resp_s_quantiles{quantile="0.99"} ')
               for l in lines)
    assert "repro_resp_s_quantiles_count 4" in lines
    # An empty histogram exports buckets but no summary block.
    empty = MetricsRegistry()
    empty.histogram("idle_s", (1.0,), "idle")
    assert "_quantiles" not in empty.to_prometheus()


@given(st.lists(st.floats(min_value=0.0, max_value=10.0,
                          allow_nan=False), min_size=1, max_size=50),
       st.floats(min_value=0.0, max_value=1.0))
def test_histogram_quantile_within_observed_range(values, q):
    hist = Histogram("resp_s", exponential_bounds(0.01, 2.0, 12))
    for value in values:
        hist.observe(value)
    estimate = hist.quantile(q)
    # The bucket model never reports beyond the last finite bound and
    # never goes negative.
    assert 0.0 <= estimate <= hist.bounds[-1]
