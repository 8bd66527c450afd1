"""The storage hierarchy: storage layers and the LayerStack that chains them.

Each component of the hierarchy (DRAM buffer cache, optional SRAM write
buffer, device) is wrapped in a :class:`StorageLayer` — ``submit`` /
``advance`` / ``finalize`` / ``frontier`` — that handles the part of a
request it can serve, forwards the remainder to its ``downstream``
neighbour, and attributes the latency and energy of its own work onto the
travelling :class:`~repro.core.request.Response`.  :class:`LayerStack` is
the hierarchy itself: it builds its layers from the components, drives
requests through them, and owns crash recovery, which spans components.

Every layer performs the exact arithmetic, in the exact order, that the
original hand-wired dispatch performed, so simulation results are
bit-identical to it (pinned by ``tests/test_layerstack_equivalence.py``).

Layer names double as attribution keys: ``dram``, ``sram``, ``device``,
plus the pseudo-layer ``cleaning`` for flash-reclamation costs a device
reports via :meth:`~repro.devices.base.StorageDevice.cleaning_costs`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any

from repro.core.hooks import HookBus
from repro.core.request import (
    CLEANING_LAYER_ID,
    DEVICE_LAYER_ID,
    DRAM_LAYER_ID,
    FLUSH_FILE_ID,
    REQUEST_POOL,
    SRAM_LAYER_ID,
    Request,
    RequestKind,
    Response,
)
from repro.devices.base import StorageDevice
from repro.errors import UnrecoverableDeviceError
from repro.faults.recovery import ReliabilityMeter, recovery_scan_s
from repro.faults.retry import RetryPolicy

if TYPE_CHECKING:
    from repro.cache.buffer_cache import BufferCache
    from repro.cache.sram_buffer import SramWriteBuffer
    from repro.faults.injector import FaultInjector
    from repro.traces.compiled import CompiledOps

#: attribution key for flash-reclamation work (cleaning stalls, erases)
CLEANING_LAYER = "cleaning"

# Hot-path locals: enum member lookups cost an attribute access per event,
# and the request path dispatches on kind for every operation.
_READ = RequestKind.READ
_WRITE = RequestKind.WRITE
_DELETE = RequestKind.DELETE
_FLUSH = RequestKind.FLUSH
#: The request kind of each compiled op code (``repro.traces.trace``'s
#: ``READ, WRITE, DELETE = 0, 1, 2``).
_KINDS = (_READ, _WRITE, _DELETE)

# Sub-requests (cache misses, buffer drains, evictions) live only for the
# duration of the downstream submit; recycling their shells through the
# pool removes one allocation per hop from the hot path.
_acquire = REQUEST_POOL.acquire
_release = REQUEST_POOL.release


class StorageLayer(ABC):
    """One stage of the storage hierarchy.

    A layer serves what it can of each request and forwards the rest to
    ``downstream`` (linked by the :class:`LayerStack`, whose chain always
    ends in a :class:`DeviceLayer`, the one layer with no downstream).
    All four protocol methods are mandatory; ``frontier`` reports how far
    the layer's own clock has advanced so the stack can compute the
    hierarchy-wide latest time without knowing any layer's internals.
    """

    name: str
    downstream: "StorageLayer | None"

    def __init__(self, name: str) -> None:
        self.name = name
        self.downstream = None

    @abstractmethod
    def submit(self, request: Request, response: Response) -> Response:
        """Process ``request``, forwarding downstream as needed.

        Foreground requests move ``response.completed_at`` to the time the
        layer finished its part; background requests must leave it alone.
        """

    @abstractmethod
    def advance(self, until: float) -> None:
        """Move the layer's accounting clock forward to ``until``."""

    @abstractmethod
    def finalize(self, until: float) -> None:
        """Flush layer state that must not outlive the simulation."""

    @abstractmethod
    def frontier(self) -> float:
        """The latest point in simulated time this layer has reached."""

    def accepts_immediate_flush(self) -> bool:
        """May buffered writes drain toward the device right now?

        Intermediate layers delegate to the device at the bottom, which
        knows whether accepting data is free (flash, spinning disk) or
        would defeat a power policy (sleeping disk).
        """
        return self.downstream.accepts_immediate_flush()


class DramLayer(StorageLayer):
    """The volatile DRAM buffer cache as a stack layer."""

    def __init__(self, cache: "BufferCache", block_bytes: int) -> None:
        super().__init__("dram")
        self.cache = cache
        self.block_bytes = block_bytes
        self.write_back = cache.write_back
        # advance() is pure delegation and runs once per request: bind
        # straight through to the cache (instance attribute wins over the
        # class method).
        self.advance = cache.advance
        # Hot-path bindings: the cache's methods and its spec's active
        # power are stable for the layer's lifetime.
        self._lookup = cache.lookup
        self._install = cache.install
        self._access_time = cache.access_time
        self._active_w = cache.spec.active_power_w

    def submit(self, request: Request, response: Response) -> Response:
        kind = request.kind

        if kind is _READ:
            now = request.time
            bb = self.block_bytes
            hits, misses = self._lookup(request.blocks)
            wait = self._access_time(len(hits) * bb)
            if wait:
                now += wait
                response.attribute_id(DRAM_LAYER_ID, wait, self._active_w * wait)
            if misses:
                sub = _acquire(
                    _READ, now, misses, len(misses) * bb, request.file_id
                )
                self.downstream.submit(sub, response)
                _release(sub)
                now = response.completed_at
                evicted = self._install(misses)
                if evicted:
                    # Write-back mode: evicted dirty blocks must reach the
                    # device before their frames are reused.
                    now = self._flush_down(evicted, now, response)
            response.completed_at = now
            return response

        if kind is _WRITE:
            now = request.time
            evicted = self._install(request.blocks, dirty=self.write_back)
            wait = self._access_time(request.size)
            if wait:
                now += wait
                response.attribute_id(DRAM_LAYER_ID, wait, self._active_w * wait)
            if evicted:
                now = self._flush_down(evicted, now, response)
            if self.write_back:
                # Absorbed; the device sees the data on eviction.
                response.completed_at = now
                return response
            sub = _acquire(
                _WRITE, now, request.blocks, request.size,
                request.file_id,
            )
            self.downstream.submit(sub, response)
            _release(sub)
            return response

        if kind is _DELETE:
            self.cache.invalidate(request.blocks)
            return self.downstream.submit(request, response)

        # FLUSH requests originate below the cache; pass through verbatim.
        return self.downstream.submit(request, response)

    def _flush_down(
        self, blocks: list[int], now: float, response: Response
    ) -> float:
        sub = _acquire(
            _FLUSH, now, blocks,
            len(blocks) * self.block_bytes, FLUSH_FILE_ID,
        )
        self.downstream.submit(sub, response)
        _release(sub)
        return response.completed_at

    def advance(self, until: float) -> None:
        self.cache.advance(until)

    def finalize(self, until: float) -> None:
        """Write-back dirty blocks must reach the device (DRAM is volatile)."""
        if self.write_back:
            dirty = self.cache.drain_dirty()
            if dirty:
                request = Request(
                    RequestKind.FLUSH, until, dirty,
                    len(dirty) * self.block_bytes, FLUSH_FILE_ID,
                )
                self.downstream.submit(request, Response(request, until))

    def frontier(self) -> float:
        return self.cache.clock


class SramLayer(StorageLayer):
    """The battery-backed SRAM write buffer as a stack layer."""

    def __init__(self, buffer: "SramWriteBuffer", block_bytes: int) -> None:
        super().__init__("sram")
        self.buffer = buffer
        self.block_bytes = block_bytes
        self.advance = buffer.advance  # pure delegation, as in DramLayer
        self._access_time = buffer.access_time
        self._active_w = buffer.spec.active_power_w

    def submit(self, request: Request, response: Response) -> Response:
        kind = request.kind
        buffer = self.buffer

        if kind is _READ:
            now = request.time
            bb = self.block_bytes
            contains = buffer.contains
            buffered: list[int] = []
            device_blocks: list[int] = []
            for block in request.blocks:
                (buffered if contains(block) else device_blocks).append(block)
            wait = self._access_time(len(buffered) * bb)
            if wait:
                now += wait
                response.attribute_id(SRAM_LAYER_ID, wait, self._active_w * wait)
            if device_blocks:
                sub = _acquire(
                    _READ, now, device_blocks,
                    len(device_blocks) * bb, request.file_id,
                )
                self.downstream.submit(sub, response)
                _release(sub)
                now = response.completed_at
                self._background_flush(response)
            response.completed_at = now
            return response

        if kind is _WRITE:
            now = request.time
            if buffer.can_ever_fit(request.blocks):
                if not buffer.fits(request.blocks):
                    flush_blocks = buffer.drain()
                    buffer.sync_flushes += 1
                    sub = _acquire(
                        _FLUSH, now, flush_blocks,
                        len(flush_blocks) * self.block_bytes, FLUSH_FILE_ID,
                    )
                    self.downstream.submit(sub, response)
                    _release(sub)
                    now = response.completed_at
                buffer.add(request.blocks)
                wait = self._access_time(request.size)
                if wait:
                    now += wait
                    response.attribute_id(SRAM_LAYER_ID, wait, self._active_w * wait)
                response.completed_at = now
                # Write-behind: while the device is awake anyway, drain
                # right away (keeps a spinning disk's idle timer fresh); to
                # a sleeping disk, hold the data and defer the spin-up.
                if self.downstream.accepts_immediate_flush():
                    # The drained data is overwhelmingly the write that
                    # just landed, so charge seeks as if it were its file's.
                    self._background_flush(response, file_id=request.file_id)
                return response
            # Bypassing the buffer: drop stale buffered versions so a later
            # flush cannot overwrite this newer data.
            buffer.invalidate(request.blocks)
            sub = _acquire(
                _WRITE, now, request.blocks, request.size,
                request.file_id,
            )
            self.downstream.submit(sub, response)
            _release(sub)
            self._background_flush(response)
            return response

        if kind is _DELETE:
            buffer.invalidate(request.blocks)
            return self.downstream.submit(request, response)

        # FLUSH: a batch already on its way to the device; forward verbatim
        # (a flush must not be re-absorbed by the buffer that emitted it).
        return self.downstream.submit(request, response)

    def _background_flush(self, response: Response, file_id: int = FLUSH_FILE_ID) -> None:
        """Drain the buffer behind a device access that already happened:
        the device is active (and, for a disk, spinning), so the flush
        costs device time and energy but does not delay the foreground
        operation."""
        buffer = self.buffer
        if buffer.dirty_count == 0:
            return
        blocks = buffer.drain()
        buffer.background_flushes += 1
        sub = _acquire(
            _FLUSH, 0.0, blocks, len(blocks) * self.block_bytes,
            file_id, background=True,
        )
        self.downstream.submit(sub, response)
        _release(sub)

    def advance(self, until: float) -> None:
        self.buffer.advance(until)

    def finalize(self, until: float) -> None:
        """SRAM contents may stay buffered: the battery holds them."""

    def frontier(self) -> float:
        return self.buffer.clock


class DeviceLayer(StorageLayer):
    """The terminal layer: a non-volatile device, with fault retries.

    Queue-wait subtraction happens here: the simulator is trace-driven, so
    a request arriving while the device is busy queues behind the
    in-flight operation, and the paper's methodology ("all operations take
    the average or 'typical' time") excludes that wait from responses
    unless the configuration asks for queueing-inclusive reporting.
    """

    def __init__(
        self,
        device: StorageDevice,
        response_includes_queueing: bool = False,
        injector: "FaultInjector | None" = None,
        retry: RetryPolicy | None = None,
        reliability: ReliabilityMeter | None = None,
    ) -> None:
        super().__init__("device")
        self.device = device
        self.response_includes_queueing = response_includes_queueing
        self.faults = injector
        self.retry = retry
        self.reliability = reliability
        # Hot-path bindings: the meter is stable for the device's lifetime
        # (FlashCacheDevice builds its merged view per property access),
        # and devices without reclamation skip cleaning deltas entirely.
        self._meter = device.energy
        self._has_cleaning = device.has_cleaning

    # -- submit ------------------------------------------------------------------

    def submit(self, request: Request, response: Response) -> Response:
        device = self.device
        kind = request.kind

        if kind is _DELETE:
            device.delete(request.time, request.blocks)
            return response

        faults = self.faults
        energy_before = self._meter.running_j
        cleaning_before = device.cleaning_costs() if self._has_cleaning else None

        if request.background:
            # Rides behind an access that already happened: starts at the
            # device's frontier, costs energy but no foreground latency.
            start = max(device.busy_until, device.clock)
            if faults is None:
                device.write(start, request.size, request.blocks, request.file_id)
            else:
                self._write(start, request.size, request.blocks, request.file_id)
            if cleaning_before is None:
                response.attribute_id(
                    DEVICE_LAYER_ID, 0.0, self._meter.running_j - energy_before
                )
            else:
                self._attribute(
                    response, 0.0, energy_before, cleaning_before, background=True
                )
            return response

        now = request.time
        if kind is _FLUSH:
            # Synchronous batched flush (buffer drains, evictions): queues
            # behind in-flight work like any access, with no wait excluded.
            if faults is None:
                completion = device.write(
                    now, request.size, request.blocks, request.file_id
                )
            else:
                completion = self._write(
                    now, request.size, request.blocks, request.file_id
                )
        else:
            if self.response_includes_queueing:
                queue_wait = 0.0
            else:
                queue_wait = max(0.0, device.busy_until - now)
            if kind is _READ:
                if faults is None:
                    completion = device.read(
                        now, request.size, request.blocks, request.file_id
                    )
                else:
                    completion = self._read(
                        now, request.size, request.blocks, request.file_id
                    )
            elif faults is None:
                completion = device.write(
                    now, request.size, request.blocks, request.file_id
                )
            else:
                completion = self._write(
                    now, request.size, request.blocks, request.file_id
                )
            # Never subtract more waiting than actually elapsed (a
            # composite device may have been busy on only one leg).
            completion -= min(queue_wait, max(0.0, completion - now))
        if cleaning_before is None:
            response.attribute_id(
                DEVICE_LAYER_ID, completion - now,
                self._meter.running_j - energy_before,
            )
        else:
            self._attribute(
                response, completion - now, energy_before, cleaning_before
            )
        response.completed_at = completion
        return response

    def _attribute(
        self,
        response: Response,
        latency_s: float,
        energy_before: float,
        cleaning_before: tuple[float, float] | None,
        background: bool = False,
    ) -> None:
        """Split the device's cost into transport vs. reclamation work."""
        energy = self._meter.running_j - energy_before
        if cleaning_before is not None:
            stall_after, clean_after = self.device.cleaning_costs()
            stall = stall_after - cleaning_before[0]
            clean_energy = clean_after - cleaning_before[1]
            if stall or clean_energy:
                if background:
                    stall = 0.0
                response.attribute_id(CLEANING_LAYER_ID, stall, clean_energy)
                latency_s -= stall
                energy -= clean_energy
        response.attribute_id(DEVICE_LAYER_ID, latency_s, energy)

    # -- fault-aware device access -------------------------------------------------

    def _read(self, at: float, size: int, blocks: Any, file_id: int) -> float:
        """Device read with transient-fault retries; returns completion."""
        completion = self.device.read(at, size, blocks, file_id)
        if self.faults is None:
            return completion
        retries, recovered = self.faults.read_failures()
        for attempt in range(retries):
            delay = self.retry.backoff(attempt)
            self.reliability.read_retries += 1
            self.reliability.retry_delay_s += delay
            completion = self.device.read(completion + delay, size, blocks, file_id)
        if not recovered:
            self._unrecovered("read", blocks)
        return completion

    def _write(self, at: float, size: int, blocks: Any, file_id: int) -> float:
        """Device write with transient-fault retries; returns completion.

        Each retry re-issues the whole operation after an exponential
        backoff: the device charges time and energy again (and, on flash,
        burns another out-of-place allocation — retried programs are real
        wear), and the foreground response stretches accordingly.
        """
        completion = self.device.write(at, size, blocks, file_id)
        if self.faults is None:
            return completion
        retries, recovered = self.faults.write_failures()
        for attempt in range(retries):
            delay = self.retry.backoff(attempt)
            self.reliability.write_retries += 1
            self.reliability.retry_delay_s += delay
            completion = self.device.write(completion + delay, size, blocks, file_id)
        if not recovered:
            self._unrecovered("write", blocks)
        return completion

    def _unrecovered(self, kind: str, blocks: Any) -> None:
        self.reliability.unrecovered_errors += 1
        if self.faults.plan.fail_fast:
            raise UnrecoverableDeviceError(
                f"{kind} of blocks {list(blocks)[:4]}... still failing after "
                f"{self.faults.plan.max_retries} retries"
            )

    # -- protocol --------------------------------------------------------------------

    def accepts_immediate_flush(self) -> bool:
        return self.device.accepts_immediate_flush()

    def advance(self, until: float) -> None:
        if until > self.device.clock:
            self.device.advance(until)

    def finalize(self, until: float) -> None:
        """Nothing buffered here: the device is the non-volatile bottom."""

    def frontier(self) -> float:
        device = self.device
        return max(device.busy_until, device.clock)


class LayerStack:
    """The storage hierarchy: a DRAM buffer cache, an optional SRAM write
    buffer and a device, chained as layers.

    ``dram`` and ``sram`` are the components themselves, or None when
    absent or disabled.  The stack owns the request lifecycle
    (:meth:`run_batch`): it fires ``on_submit``, advances every layer to
    the request's issue time, dispatches to the top layer, and fires
    ``on_complete`` with the finished response.  Crash recovery is here
    too, because it spans components: the device tears, DRAM drops, SRAM
    replays.
    """

    def __init__(
        self,
        device: StorageDevice,
        dram: "BufferCache | None",
        sram: "SramWriteBuffer | None",
        block_bytes: int,
        *,
        response_includes_queueing: bool = False,
        injector: "FaultInjector | None" = None,
    ) -> None:
        self.device = device
        self.dram = dram if dram is not None and dram.enabled else None
        self.sram = sram if sram is not None and sram.enabled else None
        self.block_bytes = block_bytes
        self.faults = injector
        self.hooks = HookBus()
        retry = None
        self.reliability: ReliabilityMeter | None = None
        if injector is not None:
            plan = injector.plan
            retry = RetryPolicy(plan.max_retries, plan.retry_backoff_s)
            self.reliability = ReliabilityMeter()

        layers: list[StorageLayer] = []
        if self.dram is not None:
            layers.append(DramLayer(self.dram, block_bytes))
        if self.sram is not None:
            layers.append(SramLayer(self.sram, block_bytes))
        layers.append(
            DeviceLayer(
                device,
                response_includes_queueing=response_includes_queueing,
                injector=injector,
                retry=retry,
                reliability=self.reliability,
            )
        )
        for upper, lower in zip(layers, layers[1:]):
            upper.downstream = lower
        self.layers = layers
        # Bound per-layer advance methods: advance runs once per request,
        # so the stack pays for method resolution once, here.
        self._advances = tuple(layer.advance for layer in layers)
        self._head_submit = layers[0].submit

    # -- request lifecycle ---------------------------------------------------------

    def run_batch(
        self, compiled: "CompiledOps", start: int = 0, stop: int | None = None
    ) -> None:
        """Run compiled operations ``[start, stop)`` through the stack.

        For each operation, in order: fire ``on_submit`` with the request,
        advance every layer to its issue time, submit it to the top layer,
        and fire ``on_complete`` with the finished response.  The loop
        reads the window's columns as lists made once per call, recycles
        one pooled Request/Response pair across all operations, and
        compiles hook emission to direct calls (or nothing) up front.

        Two sharp edges, both irrelevant to the simulator's use:
        subscribers added to the bus *during* the batch are not observed
        by it, and the Response delivered to ``on_complete`` is recycled —
        a subscriber must not retain it across operations.  (The
        :class:`~repro.obs.session.ObservabilitySession` honours both: it
        subscribes before the batch starts and copies what it needs out of
        the Response inside its handler.)
        """
        window = slice(start, stop)
        hooks = self.hooks
        fire_submit = hooks.compiled_submit()
        fire_complete = hooks.compiled_complete()
        advances = self._advances
        head_submit = self._head_submit
        request = REQUEST_POOL.acquire(_READ, 0.0, (), 0, 0)
        response = Response(request, 0.0)
        reset = response.reset
        for kind, time, blocks, size, file_id in zip(
            map(_KINDS.__getitem__, compiled.op_codes[window].tolist()),
            compiled.time[window].tolist(),
            compiled.blocks[window],
            compiled.size[window].tolist(),
            compiled.file_id[window].tolist(),
        ):
            request.kind = kind
            request.time = time
            request.blocks = blocks
            request.size = size
            request.file_id = file_id
            if fire_submit is not None:
                fire_submit(request)
            for advance in advances:
                advance(time)
            reset(request, time)
            head_submit(request, response)
            if fire_complete is not None:
                fire_complete(response)
        REQUEST_POOL.release(request)

    # -- time/energy bookkeeping ---------------------------------------------------

    def advance(self, until: float) -> None:
        """Move every layer's accounting clock forward to ``until``."""
        for advance in self._advances:
            advance(until)

    def latest_time(self) -> float:
        """The latest point any layer has reached."""
        latest = 0.0
        for layer in self.layers:
            frontier = layer.frontier()
            if frontier > latest:
                latest = frontier
        return latest

    def finalize(self, until: float) -> None:
        """Flush volatile dirty state and close energy accounting.

        Dirty blocks in a write-back DRAM cache must reach the device (DRAM
        is volatile); SRAM contents may stay buffered (battery-backed).
        """
        for layer in self.layers:
            layer.finalize(self.latest_time())
        end = max(until, self.latest_time())
        self.advance(end)

    def reset_accounting(self) -> None:
        """Zero all energy meters and counters (warm-start boundary)."""
        self.device.reset_accounting()
        if self.dram is not None:
            self.dram.reset_accounting()
        if self.sram is not None:
            self.sram.reset_accounting()
        if self.reliability is not None:
            self.reliability.reset()

    def energy_breakdown(self) -> dict[str, dict[str, float]]:
        """Per-component, per-bucket energy in Joules."""
        breakdown = {"device": self.device.energy.breakdown()}
        if self.dram is not None:
            breakdown["dram"] = self.dram.energy.breakdown()
        if self.sram is not None:
            breakdown["sram"] = self.sram.energy.breakdown()
        return breakdown

    @property
    def total_energy_j(self) -> float:
        """Total energy across all components, Joules."""
        return sum(
            sum(buckets.values()) for buckets in self.energy_breakdown().values()
        )

    def layer_energy(self) -> dict[str, float]:
        """Run-level energy per attribution key, summing to the total.

        The device's flash-reclamation buckets are split out under
        ``cleaning`` so the breakdown mirrors per-request attribution.
        """
        components = self.energy_breakdown()
        device_total = sum(components["device"].values())
        clean_total = self.device.cleaning_costs()[1]
        energies: dict[str, float] = {}
        if clean_total:
            energies[CLEANING_LAYER] = clean_total
        energies["device"] = device_total - clean_total
        for name in ("dram", "sram"):
            if name in components:
                energies[name] = sum(components[name].values())
        return energies

    # -- crash / recovery ------------------------------------------------------------

    def crash(self, at: float) -> None:
        """Lose power at trace time ``at`` and recover.

        Semantics (paper sections 4.2 and 5.5): in-flight device work is
        torn; the volatile DRAM cache drops (write-back dirty blocks are
        lost outright); the battery-backed SRAM survives and replays its
        dirty blocks during recovery; recovery costs a metadata scan plus
        the replay writes, charged to the device's ``recovery`` bucket and
        the run's recovery-time counter.
        """
        meter = self.reliability
        meter.power_losses += 1
        device = self.device
        if device.busy_until > at + 1e-12:
            meter.torn_writes += 1
        self.advance(at)
        device.power_cycle(at)

        if self.dram is not None:
            resident, dirty = self.dram.drop_all()
            meter.dropped_cache_blocks += resident
            meter.lost_dirty_blocks += dirty

        energy_before = device.energy.total_j
        now = device.recover(at, recovery_scan_s(device, self.faults.plan))
        sram = self.sram
        if sram is not None and sram.dirty_count:
            blocks = sram.crash_replay()
            meter.replayed_blocks += len(blocks)
            # The replay bypasses fault injection: recovery code paths
            # verify each write, so a transient fault costs nothing extra.
            now = device.write(
                now, len(blocks) * self.block_bytes, blocks, FLUSH_FILE_ID
            )
        meter.recovery_time_s += now - at
        meter.recovery_energy_j += device.energy.total_j - energy_before
        self.hooks.emit_crash(at, now)

    def fire_pending_power_losses(self, until: float) -> int:
        """Deliver every scheduled power loss at or before ``until``.

        Returns the number of crashes fired.  This is the primitive both
        the simulator's ``on_submit`` subscriber and its post-trace drain
        loop use, so ordering is identical in both places.
        """
        if self.faults is None:
            return 0
        fired = 0
        while (loss_at := self.faults.next_power_loss(until)) is not None:
            self.crash(loss_at)
            fired += 1
        return fired

    def reliability_snapshot(self):
        """Frozen reliability stats, or None when no faults were injected."""
        if self.reliability is None:
            return None
        return self.reliability.snapshot(self.device)
