"""The five workloads: what one repetition runs and how its output is checked.

Every repetition starts cold: fresh cache, trace-store, manifest and spool
directories, and an empty in-process trace cache.  A repetition is one call
through a front door (one ``table4`` run, one registry sweep, one fleet, one
observed run); for ``serve-fleet`` it is one round of jobs sent over HTTP.
See README.md for why each workload exists and which layers it loads.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any

#: Interpreter launches timed per run for ``setup_s`` (the median is kept).
SETUP_LAUNCHES = 9


@dataclass
class Rep:
    """One timed repetition."""

    wall_s: float
    #: per-job seconds.  A job is one engine work unit (the whole
    #: repetition for table4 and observed), or one HTTP job on serve-fleet.
    jobs_s: list[float]
    devices: int = 0
    ops: int = 0
    #: per-layer values only the workload can measure (replay, serve.*)
    extra: dict[str, float] = field(default_factory=dict)


class Checks:
    """Output checks; a failure is counted and reported, never raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr, flush=True)
        return ok


@dataclass
class Context:
    root: Path
    tmp: Path
    seed: int
    smoke: bool
    env: dict[str, str]
    checks: Checks = field(default_factory=Checks)
    _dirs: int = 0

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.tmp / f"{label}-{self._dirs}"
        path.mkdir(parents=True)
        return path


def cold() -> None:
    """Forget every generated trace this process holds, so the next
    repetition generates (and compiles) its traces again."""
    from repro.experiments import traces_cache

    traces_cache._generate.cache_clear()
    gc.collect()


def _probe() -> float:
    """Seconds for a fixed ~10 ms block of pure-Python dict churn."""
    start = time.perf_counter()
    table: dict[int, float] = {}
    total = 0.0
    for i in range(60_000):
        key = i % 512
        total += table.get(key, 0.0) * 0.5 + i * 1e-9
        table[key] = total
    return time.perf_counter() - start


def probe_cpus(cpus: set[int]) -> dict[int, float]:
    """Seconds :func:`_probe` takes on each of ``cpus`` right now; this
    process may run on all of them again afterwards."""
    timings = {}
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = _probe()
    os.sched_setaffinity(0, cpus)
    return timings


def pin_to_fastest_cpu(cpus: set[int]) -> float:
    """Pin this process (and what it launches next) to whichever of
    ``cpus`` runs :func:`_probe` fastest right now.

    On a shared host each vCPU alternates, independently of the others,
    between a fast phase and one about 1.6x slower that can last a
    minute; the scheduler never moves a lone busy process off a slow
    vCPU.  Only single-process workloads are pinned: a pinned parent
    would put a pool's forked workers on one vCPU.  Returns the fastest
    probe's seconds."""
    timings = probe_cpus(cpus)
    fastest = min(timings, key=timings.get)
    os.sched_setaffinity(0, {fastest})
    return timings[fastest]


def launch_to_ready(ctx: Context, modules: tuple[str, ...],
                    cpus: set[int] | None) -> float:
    """Median seconds for a fresh interpreter to import ``modules``; each
    launch is pinned to the fastest of ``cpus`` unless that is None."""
    code = "import " + ", ".join(modules)
    times = []
    for _ in range(SETUP_LAUNCHES):
        if cpus is not None:
            pin_to_fastest_cpu(cpus)
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ctx.root, env=ctx.env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=120,
        )
        times.append(time.perf_counter() - start)
        ctx.checks.expect(
            done.returncode == 0,
            f"setup launch failed: {done.stderr.decode(errors='replace')[-400:]}",
        )
    return median(times)


class Workload:
    name = ""
    #: modules a fresh process imports before it can start this workload
    modules: tuple[str, ...] = ()
    #: count simulations at Simulator.run (they run in-process or in
    #: forked pool workers); fleet workloads read counts from summaries
    tally = False
    #: span names the traced run must see at least one call of
    expected: frozenset[str] = frozenset()
    #: repetitions an end-to-end run makes, however short ``--seconds``
    min_reps = 3
    #: runs in this process alone, so an end-to-end run pins each
    #: repetition and set-up launch to the fastest vCPU
    single_process = False

    def __init__(self, ctx: Context, traced: bool) -> None:
        #: engine workloads trace at jobs=1 so every call lands in this
        #: process; the untraced runs keep the pool
        self.jobs = 1 if traced else 2

    def setup(self, ctx: Context, cpus: set[int] | None) -> float:
        return launch_to_ready(ctx, self.modules, cpus)

    def prepare(self, ctx: Context) -> None:
        """Untimed work the output checks need."""

    def rep(self, ctx: Context, traced: bool = False) -> Rep:
        raise NotImplementedError

    def close(self, ctx: Context) -> None:
        """Stop whatever the workload started."""


# -- table4 --------------------------------------------------------------------

MAC_DISKS = ("cu140-measured", "cu140-datasheet", "kh-datasheet")


def check_table4(checks: Checks, result) -> None:
    """The Table 4 orderings on the mac rows."""
    table = result.tables[0]
    if not checks.expect("(mac)" in table.title, f"first table is {table.title!r}"):
        return
    rows = {row[0]: row for row in table.rows}
    column = {name: index for index, name in enumerate(table.headers)}

    def values(header: str) -> dict[str, float]:
        return {device: row[column[header]] for device, row in rows.items()}

    energy = values("energy J")
    reads = values("rd mean ms")
    writes = values("wr mean ms")
    checks.expect(
        energy["cu140-datasheet"] > 7 * energy["intel-datasheet"],
        f"flash not an order of magnitude below disk on energy: {energy}",
    )
    checks.expect(
        all(reads["intel-datasheet"] <= value for value in reads.values()),
        f"flash card not fastest on reads: {reads}",
    )
    checks.expect(
        min(writes, key=writes.get) in MAC_DISKS,
        f"disk+SRAM not fastest on writes: {writes}",
    )
    checks.expect(
        energy["kh-datasheet"] > energy["cu140-datasheet"],
        f"KittyHawk not worse than CU140 on energy: {energy}",
    )


class Table4(Workload):
    name = "table4"
    modules = ("repro.experiments.runner", "repro.experiments.exp_table4",
               "repro.kernel.vector")
    tally = True
    single_process = True
    expected = frozenset({
        "traces.generate", "traces.compile", "traces.trace_for",
        "kernel.dram_classify", "kernel.disk", "kernel.flashdisk",
        "kernel.flashcard", "kernel.simulate_vector",
        "core.simulate", "core.build_hierarchy",
    })

    #: A quarter of full scale: a repetition of about a second on a 2-vCPU
    #: host, short enough that every run has some in the host's fast phase.
    scale = 0.25

    def rep(self, ctx: Context, traced: bool = False) -> Rep:
        from repro.experiments.runner import run_experiment

        cold()
        start = time.perf_counter()
        result = run_experiment("table4", scale=self.scale, seed=ctx.seed,
                                kernel="vector")
        wall = time.perf_counter() - start
        check_table4(ctx.checks, result)
        return Rep(wall, [wall])


# -- registry ------------------------------------------------------------------

class Registry(Workload):
    name = "registry"
    modules = ("repro.engine", "repro.experiments.registry")
    tally = True
    expected = frozenset({
        "traces.generate", "traces.compile", "traces.trace_for",
        "core.simulate", "core.build_hierarchy", "core.run_batch",
        "engine.execute", "engine.result_cache.get", "engine.result_cache.put",
        "engine.trace_store.save", "engine.trace_store.load",
        "engine.trace_store.prewarm", "engine.manifest",
        "fleet.sample", "fleet.simulate_device", "fleet.aggregate",
    })

    def __init__(self, ctx: Context, traced: bool) -> None:
        super().__init__(ctx, traced)
        self.scale = 0.02 if ctx.smoke else 0.05

    def rep(self, ctx: Context, traced: bool = False) -> Rep:
        from repro.engine import (ResultCache, RunManifest, TraceStore,
                                  decompose, execute)
        from repro.experiments.registry import all_experiments

        units = decompose(sorted(all_experiments()), scale=self.scale,
                          seeds=(ctx.seed,))
        root = ctx.fresh_dir("registry")
        cache, store = ResultCache(root), TraceStore(root)
        cold()
        start = time.perf_counter()
        with RunManifest(root / "manifest.jsonl") as manifest:
            outcomes = execute(units, jobs=self.jobs, cache=cache,
                               trace_store=store, manifest=manifest)
        wall = time.perf_counter() - start
        for outcome in outcomes:
            ctx.checks.expect(
                outcome.ok and outcome.result is not None,
                f"registry unit {outcome.unit.label} failed: "
                f"{(outcome.error or '').strip()[-400:]}",
            )
        extra = {}
        if traced:
            start = time.perf_counter()
            warm = execute(units, jobs=self.jobs, cache=cache, trace_store=store)
            extra["engine.replay_s"] = time.perf_counter() - start
            ctx.checks.expect(
                all(outcome.cache == "hit" for outcome in warm),
                "warm registry pass did not replay every unit from the cache",
            )
        shutil.rmtree(root)
        return Rep(wall, [outcome.wall_s for outcome in outcomes], extra=extra)


# -- fleet-fast ----------------------------------------------------------------

class FleetFast(Workload):
    name = "fleet-fast"
    modules = ("repro.engine", "repro.fleet", "repro.fleet.synth")
    expected = frozenset({
        "engine.execute", "engine.result_cache.get", "engine.result_cache.put",
        "engine.trace_store.prewarm", "engine.trace_store.save",
        "engine.trace_store.load", "engine.manifest",
        "fleet.sample", "fleet.synth", "fleet.aggregate",
    })

    def __init__(self, ctx: Context, traced: bool) -> None:
        super().__init__(ctx, traced)
        self.devices = 1024 if ctx.smoke else 16384

    def spec(self, ctx: Context):
        from repro.fleet import FleetSpec

        return FleetSpec(devices=self.devices, seed=ctx.seed, scale=0.1,
                         ops_per_device=400)

    def prepare(self, ctx: Context) -> None:
        # Expected total_ops from the reference per-device sampler, which
        # the fast path's batched sampler must reproduce exactly.
        from repro.fleet.population import sample_devices

        self.total_ops = sum(s.n_ops for s in sample_devices(self.spec(ctx)))

    def rep(self, ctx: Context, traced: bool = False) -> Rep:
        from repro.engine import ResultCache, RunManifest, TraceStore
        from repro.fleet import run_fleet

        spec = self.spec(ctx)
        root = ctx.fresh_dir("fleet")
        cold()
        start = time.perf_counter()
        with RunManifest(root / "manifest.jsonl") as manifest:
            run = run_fleet(spec, jobs=self.jobs, cache=ResultCache(root),
                            trace_store=TraceStore(root), manifest=manifest,
                            fast=True)
        wall = time.perf_counter() - start
        population = (run.summary or {}).get("population", {})
        ctx.checks.expect(run.summary is not None, "fleet produced no summary")
        ctx.checks.expect(
            population.get("devices") == self.devices,
            f"fleet summary has {population.get('devices')} devices, "
            f"expected {self.devices}",
        )
        ctx.checks.expect(
            population.get("total_ops") == self.total_ops,
            f"fleet summary has total_ops {population.get('total_ops')}, "
            f"expected {self.total_ops}",
        )
        shutil.rmtree(root)
        return Rep(wall, [outcome.wall_s for outcome in run.outcomes],
                   devices=self.devices, ops=int(population.get("total_ops", 0)))


# -- serve-fleet ---------------------------------------------------------------

#: Closed-loop HTTP clients (the machine this was tuned on has 2 cores).
CLIENTS = 2
#: Jobs per round: few enough that a round takes about five seconds on a
#: 2-vCPU host, so a run holds several.
ROUND_JOBS = 10
JOB_DEVICES = 16
#: Server launches timed for ``setup_s``; the last one carries the load.
SERVER_LAUNCHES = 7


def _request(port: int, method: str, path: str, body: bytes | None = None,
             timeout: float = 120.0) -> tuple[int, str | None, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.getheader("Retry-After"), response.read()
    finally:
        conn.close()


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@dataclass
class JobRecord:
    seed: int
    latency_s: float | None = None
    snapshot: dict[str, Any] | None = None
    rejected: int = 0
    error: str | None = None


def run_job(port: int, seed: int) -> JobRecord:
    """Submit one fleet job and read its event stream to the end."""
    record = JobRecord(seed)
    body = json.dumps({"kind": "fleet", "devices": JOB_DEVICES, "seed": seed,
                       "scale": 0.1}).encode()
    start = time.perf_counter()
    while True:
        status, retry_after, data = _request(port, "POST", "/jobs", body)
        if status != 429:
            break
        record.rejected += 1
        time.sleep(min(float(retry_after or 1), 2.0))
    if status != 201:
        record.error = f"POST /jobs answered {status}: {data[:200]!r}"
        return record
    job_id = json.loads(data)["id"]
    status, _, stream = _request(port, "GET", f"/jobs/{job_id}/events")
    record.latency_s = time.perf_counter() - start
    lines = stream.decode().splitlines()
    if status != 200 or not lines:
        record.error = f"event stream answered {status} with {len(lines)} lines"
        return record
    status, _, data = _request(port, "GET", f"/jobs/{job_id}")
    record.snapshot = json.loads(data)
    return record


def run_round(port: int, seeds: list[int]) -> tuple[float, list[JobRecord]]:
    """``CLIENTS`` closed-loop clients work through ``seeds``, one job each."""
    pending = list(seeds)
    records: list[JobRecord] = []
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                if not pending:
                    return
                seed = pending.pop(0)
            try:
                record = run_job(port, seed)
            except Exception as exc:  # a client must finish the round
                record = JobRecord(seed, error=repr(exc))
            with lock:
                records.append(record)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, records


def stop_server(proc: subprocess.Popen) -> int:
    """SIGTERM (the server drains and exits 130); kill if it hangs."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait()


class InProcessServer:
    """``JobManager`` + ``run_server`` on a thread of this process, so the
    traced run sees every call the service makes."""

    def __init__(self, root: Path) -> None:
        import asyncio

        from repro.engine import ResultCache, TraceStore
        from repro.serve.http import run_server
        from repro.serve.jobs import JobManager

        manager = JobManager(spool_dir=root / "spool", cache=ResultCache(root),
                             trace_store=TraceStore(root), jobs=1)
        bound = threading.Event()
        self.port = 0
        self._state: dict[str, Any] = {}

        async def serve() -> int:
            self._state["loop"] = asyncio.get_running_loop()
            self._state["stop"] = stop = asyncio.Event()

            def on_bound(port: int) -> None:
                self.port = port
                bound.set()

            return await run_server(manager, "127.0.0.1", 0, stop=stop,
                                    install_signal_handlers=False,
                                    on_bound=on_bound)

        self._thread = threading.Thread(target=lambda: asyncio.run(serve()))
        self._thread.start()
        if not bound.wait(60):
            raise RuntimeError("in-process server never bound a port")

    def stop(self) -> None:
        self._state["loop"].call_soon_threadsafe(self._state["stop"].set)
        self._thread.join(60)


class ServeFleet(Workload):
    name = "serve-fleet"
    min_reps = 1
    expected = frozenset({
        "engine.execute", "engine.result_cache.get", "engine.result_cache.put",
        "engine.trace_store.prewarm", "engine.manifest",
        "fleet.sample", "fleet.simulate_device", "fleet.aggregate",
        "core.simulate", "core.build_hierarchy", "core.run_batch",
        "traces.generate", "traces.compile",
    })

    def __init__(self, ctx: Context, traced: bool) -> None:
        super().__init__(ctx, traced)
        self.in_process = traced
        # A traced run makes three rounds; its medians need fewer jobs.
        self.round_jobs = 4 if ctx.smoke else ROUND_JOBS // 2 if traced else ROUND_JOBS
        self.rounds = 0
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def _launch(self, ctx: Context) -> float:
        """Start ``repro serve`` on a free port; seconds until /healthz."""
        for _attempt in range(3):  # another process may take the port first
            port = free_port()
            root = ctx.fresh_dir("serve")
            start = time.perf_counter()
            with open(root / "server.log", "wb") as log:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "repro", "serve", "--jobs", "1",
                     "--port", str(port), "--cache-dir", str(root / "cache"),
                     "--spool-dir", str(root / "spool")],
                    cwd=ctx.root, env=ctx.env, stdin=subprocess.DEVNULL,
                    stdout=log, stderr=subprocess.STDOUT,
                )
            self.proc, self.port = proc, port
            while proc.poll() is None and time.perf_counter() - start < 60:
                try:
                    if _request(port, "GET", "/healthz", timeout=5)[0] == 200:
                        return time.perf_counter() - start
                except OSError:
                    time.sleep(0.005)
            stop_server(proc)
        raise RuntimeError("repro serve never answered /healthz")

    def setup(self, ctx: Context, cpus: set[int] | None) -> float:
        times = []
        for launch in range(SERVER_LAUNCHES):
            times.append(self._launch(ctx))
            if launch < SERVER_LAUNCHES - 1:
                self.close(ctx)
        return median(times)

    def close(self, ctx: Context) -> None:
        if self.proc is not None:
            code = stop_server(self.proc)
            ctx.checks.expect(code == 130,
                              f"repro serve exited {code} after SIGTERM, not 130")
            self.proc = None

    def rep(self, ctx: Context, traced: bool = False) -> Rep:
        base = ctx.seed * 1_000_003 + self.rounds * self.round_jobs
        seeds = [(base + k) % 2**31 for k in range(self.round_jobs)]
        self.rounds += 1
        server = None
        if self.in_process:
            cold()
            server = InProcessServer(ctx.fresh_dir("serve"))
            self.port = server.port
        try:
            wall, records = run_round(self.port, seeds)
        finally:
            if server is not None:
                server.stop()
        return self._score(ctx, wall, records)

    def _score(self, ctx: Context, wall: float, records: list[JobRecord]) -> Rep:
        latencies, devices, ops = [], 0, 0
        queue_wait, run, http_s = [], [], []
        for record in records:
            snapshot = record.snapshot or {}
            summary = (snapshot.get("result") or {}).get("summary") or {}
            count = summary.get("population", {}).get("devices")
            done = ctx.checks.expect(
                record.error is None and snapshot.get("state") == "done",
                f"serve job seed {record.seed} ended "
                f"{snapshot.get('state')!r}: {record.error or snapshot.get('error')}",
            )
            ctx.checks.expect(
                count == JOB_DEVICES,
                f"serve job seed {record.seed} summarised {count} devices, "
                f"expected {JOB_DEVICES}",
            )
            if not done:
                continue
            latencies.append(record.latency_s)
            devices += count or 0
            ops += summary.get("population", {}).get("total_ops", 0)
            created = snapshot["created_at"]
            started = snapshot["started_at"]
            finished = snapshot["finished_at"]
            queue_wait.append(started - created)
            run.append(finished - started)
            http_s.append(record.latency_s - (finished - created))
        extra = {
            "serve.queue_wait_s": median(queue_wait) if queue_wait else 0.0,
            "serve.run_s": median(run) if run else 0.0,
            "serve.http_s": median(http_s) if http_s else 0.0,
            "serve.rejected": sum(record.rejected for record in records),
        }
        return Rep(wall, latencies, devices=devices, ops=ops, extra=extra)


# -- observed ------------------------------------------------------------------

def check_observed(checks: Checks, artifacts: dict[str, str]) -> None:
    """The Chrome trace's per-layer slices re-read from disk must sum to
    each simulation's ``layer_breakdown`` latencies, bit for bit."""
    from repro.obs import read_chrome_layer_totals

    chrome = read_chrome_layer_totals(artifacts["trace"])
    runs = json.loads(Path(artifacts["metrics"]).read_text())["runs"]
    if not checks.expect(
        bool(runs) and len(chrome) == len(runs),
        f"chrome trace has {len(chrome)} runs, metrics have {len(runs)}",
    ):
        return
    for totals, run in zip(chrome, runs):
        reported = run["layer_breakdown_latency_s"]
        diff = max(
            abs(totals.get(name, 0.0) - reported.get(name, 0.0))
            for name in set(totals) | set(reported)
        )
        checks.expect(
            diff == 0.0,
            f"run {run['run']} ({run['device']}): chrome layer totals "
            f"differ from layer_breakdown by {diff:g}",
        )


class Observed(Workload):
    name = "observed"
    modules = ("repro.engine", "repro.obs", "repro.kernel.vector",
               "repro.experiments.exp_table4")
    tally = True
    single_process = True
    expected = frozenset({
        "traces.generate", "traces.compile", "traces.trace_for",
        "core.simulate", "core.build_hierarchy", "core.run_batch",
        "obs.export",
    })

    def __init__(self, ctx: Context, traced: bool) -> None:
        super().__init__(ctx, traced)
        self.scale = 0.01 if ctx.smoke else 0.015

    def rep(self, ctx: Context, traced: bool = False) -> Rep:
        from repro.engine import WorkUnit
        from repro.engine.scheduler import run_unit_observed

        unit = WorkUnit("table4", scale=self.scale, seed=ctx.seed,
                        kernel="vector")
        root = ctx.fresh_dir("observed")
        cold()
        start = time.perf_counter()
        _result, artifacts = run_unit_observed(unit, str(root / "trace"),
                                               str(root / "metrics"))
        wall = time.perf_counter() - start
        check_observed(ctx.checks, artifacts)
        shutil.rmtree(root)
        return Rep(wall, [wall])


WORKLOADS = {cls.name: cls for cls in
             (Table4, Registry, FleetFast, ServeFleet, Observed)}
