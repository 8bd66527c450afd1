"""Typed span events and the bounded ring buffer that records them.

The tracer answers the question the run-level reports cannot: *what
happened, when, inside one simulation?*  Every foreground request becomes
a span; every per-layer attribution becomes a child slice that tiles the
span exactly (the slices are laid end to end in first-touch order, and
their durations are the very floats the
:class:`~repro.core.metrics.MetricsCollector` folds into
``SimulationResult.layer_breakdown`` — so the trace and the report agree
bit for bit).  Device-internal episodes (spin-ups and spin-downs,
foreground cleaning stalls, background sector erases) and crash/recovery
windows get their own spans, and DRAM cache hit/miss totals ride along as
a counter track.

Storage is a bounded ring: events are fixed-shape tuples appended to a
:class:`collections.deque`; when the buffer is full the oldest event is
dropped (and counted).

Event tuple shape (one tuple per event, no per-event dicts)::

    (kind, t0_s, dur_s, name, a, b)

===========  =====================  ==========================================
kind         name                   a, b
===========  =====================  ==========================================
``run``      "trace|device"         run index, 0
``request``  "read"/"write"/...     0, 0
``layer``    layer name             0, energy_j   (dur_s is the latency)
``cache``    "dram"                 cumulative hits, cumulative misses
``spin_up``  device name            0, 0
``spin_down`` device name           0, 0
``cleaning`` device name            0, 0          (dur_s is the stall)
``erase``    device name            0, 0
``crash``    "power-loss"           0, 0          (dur_s is the recovery)
===========  =====================  ==========================================

Export: :meth:`EventTracer.write_chrome` (Chrome ``trace_event`` JSON,
loadable in Perfetto / ``chrome://tracing``, streamed from the ring in
chunks); ``repro run --observe`` writes one per work unit.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Any, Iterator

#: Event kinds a tracer records (the ``kind`` slot of every tuple).
EVENT_KINDS = (
    "run", "request", "layer", "cache",
    "spin_up", "spin_down", "cleaning", "erase", "crash",
)

Event = tuple  # (kind, t0_s, dur_s, name, a, b)

#: Default ring capacity: roomy enough that a CLI-scale run never drops.
DEFAULT_CAPACITY = 1_048_576

#: The Chrome writer's float memo (value -> JSON text) is cleared when it
#: holds this many entries, so export memory stays bounded.
FLOAT_MEMO_LIMIT = 65_536

#: Rendered Chrome records buffered between writes.
CHROME_CHUNK = 4096

_INF = float("inf")

# Chrome records, one template per kind, with the key order and the
# separators json.dumps gives the equivalent dicts.
_PROCESS = ('{"name": "process_name", "ph": "M", "pid": %d, "tid": 0, '
            '"args": {"name": %s}}')
_THREAD = ('{"name": "thread_name", "ph": "M", "pid": %d, "tid": %d, '
           '"args": {"name": %s}}')
_COUNTER = ('{"name": "dram-cache", "ph": "C", "ts": %s, "pid": %d, '
            '"tid": %d, "args": {"hits": %d, "misses": %d}}')
_REQUEST = ('{"name": %s, "cat": "request", "ph": "X", "ts": %s, "dur": %s, '
            '"pid": %d, "tid": %d, "args": {"response_s": %s}}')
_LAYER = ('{"name": %s, "cat": "layer", "ph": "X", "ts": %s, "dur": %s, '
          '"pid": %d, "tid": %d, "args": {"latency_s": %s, "energy_j": %s}}')
_CRASH = ('{"name": %s, "cat": "crash", "ph": "X", "ts": %s, "dur": %s, '
          '"pid": %d, "tid": %d, "args": {"recovery_s": %s}}')
_DEVICE = ('{"name": %s, "cat": %s, "ph": "X", "ts": %s, "dur": %s, '
           '"pid": %d, "tid": %d, "args": {"dur_s": %s, "device": %s}}')
_TRAILER = ('], "displayTimeUnit": "ms", "otherData": '
            '{"generator": "repro.obs", "emitted": %d, "dropped": %d}}')


class EventTracer:
    """A bounded ring buffer of typed simulation events.

    The hot-path contract: :meth:`emit` is the only per-event call, it
    allocates one tuple, and the ring bound is enforced with a single
    length check.  Everything else (export, summaries) walks the buffer
    after the run.
    """

    __slots__ = ("capacity", "emitted", "dropped", "_events")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"tracer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.emitted = 0      # events ever emitted (including dropped)
        self.dropped = 0      # events evicted by the ring bound
        self._events: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._events)

    def emit(self, kind: str, t0: float, dur: float, name: str,
             a: float = 0.0, b: float = 0.0) -> None:
        """Record one event, evicting the oldest if the ring is full."""
        events = self._events
        if len(events) >= self.capacity:
            events.popleft()
            self.dropped += 1
        events.append((kind, t0, dur, name, a, b))
        self.emitted += 1

    def events(self) -> Iterator[Event]:
        """The buffered events, oldest first."""
        return iter(self._events)

    def clear(self) -> None:
        """Drop every buffered event and zero the counters."""
        self._events.clear()
        self.emitted = 0
        self.dropped = 0

    def rollback(self, emitted_mark: int) -> int:
        """Discard events emitted after ``emitted_mark`` (warm boundary).

        Returns the number of events removed.  Only events still in the
        buffer can be removed; the ``emitted`` counter rewinds to the mark
        so a later mark/rollback pair composes.
        """
        excess = self.emitted - emitted_mark
        removed = 0
        events = self._events
        while removed < excess and events:
            events.pop()
            removed += 1
        self.emitted = emitted_mark
        return removed

    # -- summaries ---------------------------------------------------------------

    def layer_latency_totals(self, since_run: int | None = None) -> dict[str, float]:
        """Per-layer summed slice durations, in emission order.

        ``since_run`` restricts the sum to events after the ``run`` marker
        with that index (``None`` sums everything buffered).  Summing in
        emission order reproduces the collector's fold exactly, so — when
        nothing was dropped — the totals equal the latency column of
        ``SimulationResult.layer_breakdown`` bit for bit.
        """
        totals: dict[str, float] = {}
        active = since_run is None
        for kind, _t0, dur, name, a, _b in self._events:
            if kind == "run":
                if since_run is not None:
                    active = int(a) == since_run
                continue
            if active and kind == "layer":
                totals[name] = totals.get(name, 0.0) + dur
        return totals

    def counts(self) -> dict[str, int]:
        """Buffered event counts by kind."""
        counts: dict[str, int] = {}
        for event in self._events:
            counts[event[0]] = counts.get(event[0], 0) + 1
        return counts

    # -- export ------------------------------------------------------------------

    def write_chrome(self, path: str | Path) -> Path:
        """Write the buffered events as Chrome ``trace_event`` JSON.

        Each ``run`` marker opens a new pid (one process track per
        simulation; events before the first marker sit on pid 0).  Tracks
        get tids numbered from 0 within each pid, announced by
        ``thread_name`` metadata on first use; cache totals become a
        counter track.  ``ts``/``dur`` are microseconds as the format
        requires, while ``args`` carries the exact second-denominated
        floats so downstream checks can compare against
        ``SimulationResult.layer_breakdown`` without rounding.

        The file is streamed in one pass over the ring: each record is
        rendered from its kind's template and written every
        :data:`CHROME_CHUNK` records, and float text comes from a memo
        built for this export (a sweep replays a few traces, so most
        numbers repeat).  The bytes are those ``json.dumps`` gives the
        same document, while memory stays bounded by the ring rather than
        the file.  Returns the path.
        """
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        memo: dict[float, str] = {}
        strings: dict[str, str] = {}
        out: list[str] = []
        pid = 0
        tids: dict[str, int] = {}

        def num(x: Any) -> str:
            # Only finite nonzero floats are memoised: 0.0 == -0.0 and
            # 1 == 1.0 == True hash alike but render differently.
            if type(x) is not float:
                return json.dumps(x)
            text = memo.get(x)
            if text is None:
                if x != x:
                    return "NaN"
                if x == _INF:
                    return "Infinity"
                if x == -_INF:
                    return "-Infinity"
                text = float.__repr__(x)
                if x:
                    if len(memo) >= FLOAT_MEMO_LIMIT:
                        memo.clear()
                    memo[x] = text
            return text

        def string(text: str) -> str:
            encoded = strings.get(text)
            if encoded is None:
                encoded = strings[text] = json.dumps(text)
            return encoded

        def tid_for(track: str) -> int:
            tid = tids.get(track)
            if tid is None:
                tid = tids[track] = len(tids)
                out.append(_THREAD % (pid, tid, string(track)))
            return tid

        with open(path, "w") as stream:
            stream.write('{"traceEvents": [')
            sep = ""
            for kind, t0, dur, name, a, b in self._events:
                if len(out) >= CHROME_CHUNK:
                    stream.write(sep + ", ".join(out))
                    sep = ", "
                    out.clear()
                if kind == "run":
                    pid = int(a) + 1
                    tids = {}
                    out.append(_PROCESS % (pid, string(name)))
                    continue
                ts = num(t0 * 1e6)
                if kind == "layer":
                    tid = tid_for("layer:" + name)
                    out.append(_LAYER % (string(name), ts, num(dur * 1e6),
                                         pid, tid, num(dur), num(b)))
                elif kind == "request":
                    tid = tid_for("requests")
                    out.append(_REQUEST % (string(name), ts, num(dur * 1e6),
                                           pid, tid, num(dur)))
                elif kind == "cache":
                    tid = tid_for("cache")
                    out.append(_COUNTER % (ts, pid, tid, int(a), int(b)))
                elif kind == "crash":
                    tid = tid_for("crash")
                    out.append(_CRASH % (string(name), ts, num(dur * 1e6),
                                         pid, tid, num(dur)))
                else:  # spin_up / spin_down / cleaning / erase
                    tid = tid_for("device-events")
                    label = string(kind)
                    out.append(_DEVICE % (label, label, ts, num(dur * 1e6),
                                          pid, tid, num(dur), string(name)))
            if out:
                stream.write(sep + ", ".join(out))
            stream.write(_TRAILER % (self.emitted, self.dropped))
        return path


def read_chrome_layer_totals(path: str | Path) -> list[dict[str, float]]:
    """Per-run per-layer latency sums read back from a Chrome trace file.

    Returns one ``{layer: latency_s}`` dict per process track (i.e. per
    simulation run), in pid order, summing the exact ``args.latency_s``
    floats in file order.  A track with no layer slices gives ``{}``, so
    the list pairs by position with the session's runs; slices from
    before the first ``run`` marker (pid 0) form a track of their own.
    This is the acceptance check that the exported artifact agrees with
    ``SimulationResult.layer_breakdown``.
    """
    data = json.loads(Path(path).read_text())
    runs: dict[int, dict[str, float]] = {}
    for event in data["traceEvents"]:
        if event.get("name") == "process_name" and event.get("ph") == "M":
            runs.setdefault(event["pid"], {})
        elif event.get("cat") == "layer":
            totals = runs.setdefault(event["pid"], {})
            name = event["name"]
            totals[name] = totals.get(name, 0.0) + event["args"]["latency_s"]
    return [runs[pid] for pid in sorted(runs)]
