"""The job service: manager lifecycle, backpressure, the HTTP surface,
chaos survival under the service, and service-vs-CLI byte identity."""

from __future__ import annotations

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.engine import ChaosAction, ChaosPlan, ExecutionPolicy, ResultCache
from repro.errors import ConfigurationError
from repro.fleet import FleetSpec, canonical_json, run_fleet
from repro.serve import (
    CANCELLED,
    DONE,
    JobManager,
    QUEUED,
    QueueFullError,
    parse_request,
)
from repro.serve.http import run_server

#: One small fleet request reused across tests.
FLEET_BODY = {"kind": "fleet", "devices": 12, "seed": 4, "scale": 0.1,
              "ops": 150}


def wait_terminal(job, timeout=120.0):
    deadline = time.time() + timeout
    while not job.terminal and time.time() < deadline:
        time.sleep(0.05)
    assert job.terminal, f"job stuck in {job.state}"
    return job


# -- request validation ----------------------------------------------------


class TestParseRequest:
    def test_fleet_defaults(self):
        request = parse_request({"kind": "fleet"})
        assert request["devices"] == 100
        assert request["kind"] == "fleet"

    def test_rejects_non_object(self):
        with pytest.raises(ConfigurationError):
            parse_request([1, 2])

    def test_rejects_unknown_kind_and_fields(self):
        with pytest.raises(ConfigurationError):
            parse_request({"kind": "nope"})
        with pytest.raises(ConfigurationError):
            parse_request({"kind": "fleet", "bogus": 1})

    def test_rejects_bad_scale_and_devices(self):
        with pytest.raises(ConfigurationError):
            parse_request({"kind": "fleet", "scale": 0.0})
        with pytest.raises(ConfigurationError):
            parse_request({"kind": "fleet", "devices": 0})
        with pytest.raises(ConfigurationError):
            parse_request({"kind": "fleet", "devices": True})
        with pytest.raises(ConfigurationError):
            parse_request({"kind": "fleet", "jobs": 2.5})
        with pytest.raises(ConfigurationError):
            parse_request({"kind": "fleet", "jobs": True})
        with pytest.raises(ConfigurationError):
            parse_request({"kind": "fleet", "scale": True})

    def test_run_requires_known_experiments(self):
        request = parse_request({"kind": "run", "experiments": ["table2"],
                                 "seeds": [1, 2]})
        assert request["experiments"] == ["table2"]
        with pytest.raises(ConfigurationError):
            parse_request({"kind": "run", "experiments": []})
        with pytest.raises(ConfigurationError):
            parse_request({"kind": "run", "experiments": ["no-such"]})
        with pytest.raises(ConfigurationError):
            parse_request({"kind": "run", "experiments": ["table2"],
                           "seeds": ["x"]})


# -- manager (no HTTP) -----------------------------------------------------


class TestJobManager:
    def test_backpressure_raises_queue_full(self, tmp_path):
        manager = JobManager(spool_dir=tmp_path, jobs=1, queue_limit=2,
                             start=False)
        manager.submit(FLEET_BODY)
        manager.submit(FLEET_BODY)
        with pytest.raises(QueueFullError):
            manager.submit(FLEET_BODY)
        prom = manager.metrics.to_prometheus()
        assert "repro_serve_jobs_rejected_total 1" in prom
        assert "repro_serve_jobs_submitted_total 2" in prom

    def test_cancel_queued_job(self, tmp_path):
        manager = JobManager(spool_dir=tmp_path, jobs=1, start=False)
        job = manager.submit(FLEET_BODY)
        assert job.state == QUEUED
        manager.cancel(job.id)
        assert job.state == CANCELLED

    def test_job_lifecycle_and_events(self, tmp_path):
        manager = JobManager(spool_dir=tmp_path, jobs=1)
        try:
            job = manager.submit(FLEET_BODY)
            wait_terminal(job)
            assert job.state == DONE
            summary = job.result["summary"]
            assert summary["population"]["devices"] == FLEET_BODY["devices"]
            records = [event["record"] for event in job.events_after(0)]
            assert records[0] == "job"          # queued
            assert "run" in records             # manifest run header
            assert "unit" in records            # per-shard progress
            assert records[-1] == "job"         # terminal marker
            # The on-disk manifest holds the same engine records.
            with open(job.manifest_path) as stream:
                disk = [json.loads(line)["record"] for line in stream]
            assert disk == [r for r in records if r != "job"]
        finally:
            manager.shutdown()

    def test_shutdown_cancels_everything(self, tmp_path):
        manager = JobManager(spool_dir=tmp_path, jobs=1, queue_limit=4)
        try:
            # Many shards: the serial path cancels between units, so each
            # shard must be small enough to finish within the join grace.
            slow = manager.submit({"kind": "fleet", "devices": 4000,
                                   "scale": 0.3, "ops": 400, "shards": 64})
            queued = manager.submit(FLEET_BODY)
            time.sleep(0.3)  # let the runner pick up the slow job
        finally:
            manager.shutdown(timeout=60.0)
        wait_terminal(slow)
        wait_terminal(queued)

    def test_run_kind_job(self, tmp_path):
        manager = JobManager(spool_dir=tmp_path, jobs=1)
        try:
            job = manager.submit({"kind": "run", "experiments": ["table2"],
                                  "scale": 0.05})
            wait_terminal(job)
            assert job.state == DONE
            assert job.result["counts"]["ok"] == 1
        finally:
            manager.shutdown()

    def test_chaos_kill_under_service(self, tmp_path):
        """A chaos-killed worker must not fail the job — the shard is
        re-queued and the population summary still matches serial."""
        plan = ChaosPlan(
            seed=1, state_dir=str(tmp_path / "chaos"),
            actions=(ChaosAction("kill", "fleet", seed=4),),
        )
        manager = JobManager(
            spool_dir=tmp_path, cache=ResultCache(tmp_path / "cache"),
            jobs=2, policy=ExecutionPolicy(retries=1), chaos=plan,
        )
        try:
            job = manager.submit(dict(FLEET_BODY, shards=4))
            wait_terminal(job, timeout=240.0)
            assert job.state == DONE
            assert job.result["counts"]["requeued"] >= 1
            reference = run_fleet(
                FleetSpec(devices=FLEET_BODY["devices"],
                          seed=FLEET_BODY["seed"],
                          scale=FLEET_BODY["scale"],
                          ops_per_device=FLEET_BODY["ops"]),
                jobs=1,
            )
            assert canonical_json(job.result["summary"]) == canonical_json(
                reference.summary
            )
        finally:
            manager.shutdown()


# -- HTTP surface ----------------------------------------------------------


class _Server:
    """run_server on a private event loop thread, ephemeral port."""

    def __init__(self, manager: JobManager) -> None:
        self.manager = manager
        self.port: int | None = None
        self._loop = asyncio.new_event_loop()
        self._stop: asyncio.Event | None = None
        self._bound = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._bound.wait(10), "server did not bind"

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self._main())

    async def _main(self) -> None:
        self._stop = asyncio.Event()

        def bound(port: int) -> None:
            self.port = port
            self._bound.set()

        await run_server(self.manager, "127.0.0.1", 0, stop=self._stop,
                         install_signal_handlers=False, on_bound=bound)

    def close(self) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)

    # -- tiny client -------------------------------------------------------

    def request(self, method: str, path: str, body=None):
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(
            f"http://127.0.0.1:{self.port}{path}", data=data, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=60) as resp:
                return resp.status, dict(resp.headers), resp.read().decode()
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers), exc.read().decode()

    def stream(self, path: str):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{self.port}{path}", timeout=120
        ) as resp:
            assert resp.headers["Content-Type"] == "application/x-ndjson"
            return [json.loads(line) for line in resp]


@pytest.fixture
def server(tmp_path):
    manager = JobManager(
        spool_dir=tmp_path / "spool", cache=ResultCache(tmp_path / "cache"),
        jobs=1, queue_limit=2,
    )
    srv = _Server(manager)
    yield srv
    srv.close()


class TestHttp:
    def test_healthz(self, server):
        status, _, body = server.request("GET", "/healthz")
        assert status == 200
        assert json.loads(body) == {"ok": True}

    def test_submit_poll_stream(self, server):
        status, _, body = server.request("POST", "/jobs", FLEET_BODY)
        assert status == 201
        job = json.loads(body)
        assert job["state"] in ("queued", "running")

        events = server.stream(f"/jobs/{job['id']}/events")
        assert events[-1]["record"] == "job"
        assert events[-1]["state"] == "done"
        assert any(event["record"] == "unit" for event in events)

        status, _, body = server.request("GET", f"/jobs/{job['id']}")
        snapshot = json.loads(body)
        assert snapshot["state"] == "done"
        assert (snapshot["result"]["summary"]["population"]["devices"]
                == FLEET_BODY["devices"])
        # Resuming the stream from a cursor yields only the tail.
        tail = server.stream(
            f"/jobs/{job['id']}/events?from={len(events) - 1}"
        )
        assert tail == events[-1:]

    def test_fleet_over_http_matches_serial_cli_path(self, server):
        """The acceptance criterion: a fleet job over HTTP is
        byte-identical to the same fleet via run_fleet(jobs=1)."""
        status, _, body = server.request("POST", "/jobs", FLEET_BODY)
        assert status == 201
        job_id = json.loads(body)["id"]
        server.stream(f"/jobs/{job_id}/events")  # wait for completion
        _, _, body = server.request("GET", f"/jobs/{job_id}")
        via_http = json.loads(body)["result"]["summary"]
        reference = run_fleet(
            FleetSpec(devices=FLEET_BODY["devices"], seed=FLEET_BODY["seed"],
                      scale=FLEET_BODY["scale"],
                      ops_per_device=FLEET_BODY["ops"]),
            jobs=1,
        )
        assert canonical_json(via_http) == canonical_json(reference.summary)

    def test_backpressure_429_with_retry_after(self, server, tmp_path):
        # Saturate: one slow job runs, two sit in the queue, next is 429.
        server.request("POST", "/jobs", {"kind": "fleet", "devices": 3000,
                                         "scale": 0.3, "ops": 400})
        server.request("POST", "/jobs", FLEET_BODY)
        server.request("POST", "/jobs", FLEET_BODY)
        status, headers, body = server.request("POST", "/jobs", FLEET_BODY)
        assert status == 429
        assert headers.get("Retry-After") == "2"
        assert "queue full" in json.loads(body)["error"]

    def test_cancel_running_job(self, server):
        status, _, body = server.request(
            "POST", "/jobs",
            {"kind": "fleet", "devices": 3000, "scale": 0.3, "ops": 400,
             "shards": 64},  # cancellation lands between shard units
        )
        job_id = json.loads(body)["id"]
        time.sleep(0.5)
        status, _, _ = server.request("POST", f"/jobs/{job_id}/cancel")
        assert status == 200
        job = wait_terminal(server.manager.get(job_id))
        assert job.state == "cancelled"

    def test_bad_requests(self, server):
        assert server.request("POST", "/jobs", {"kind": "nope"})[0] == 400
        assert server.request("GET", "/jobs/zzz")[0] == 404
        assert server.request("GET", "/nothing")[0] == 404
        assert server.request("PUT", "/jobs/zzz")[0] == 404

    def test_metrics_scrape_format(self, server):
        server.request("POST", "/jobs", FLEET_BODY)
        status, headers, text = server.request("GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        lines = text.splitlines()
        assert "# TYPE repro_serve_jobs_submitted_total counter" in lines
        assert "# TYPE repro_serve_queue_depth gauge" in lines
        assert any(line.startswith("repro_serve_jobs_submitted_total ")
                   for line in lines)
        # Prometheus text format: every non-comment line is `name value`.
        for line in lines:
            if line.startswith("#") or not line:
                continue
            name, _, value = line.rpartition(" ")
            assert name
            float(value)

    def test_jobs_listing(self, server):
        server.request("POST", "/jobs", FLEET_BODY)
        status, _, body = server.request("GET", "/jobs")
        assert status == 200
        assert len(json.loads(body)["jobs"]) >= 1
