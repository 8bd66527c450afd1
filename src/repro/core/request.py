"""Request/Response objects carried through the :class:`LayerStack`.

The paper's core claim (sections 4-5) is that end-to-end response time and
energy are *sums of per-layer contributions*: the DRAM hit, the SRAM
absorb, the spin-up, the flash cleaning stall.  A :class:`Request` is one
operation travelling down the stack; the :class:`Response` that comes back
carries the issue/complete timestamps plus a per-layer ``(latency_s,
energy_j)`` attribution, so every simulated operation can say exactly
where its time and energy went.

These objects live on the simulator's hottest path, so the module is
built for zero steady-state allocation:

* the four attribution keys have fixed small integer ids, and a Response
  stores its attribution in flat parallel arrays indexed by layer id
  instead of a per-request dict — the name-keyed ``attribution`` mapping
  is rebuilt on demand;
* Requests come from a :class:`RequestPool` free-list and Responses are
  recycled via :meth:`Response.reset`, so the batched driver
  (:meth:`~repro.core.layers.LayerStack.run_batch`) allocates nothing
  per operation.

Everything is ``__slots__``-based and validation-free by design (the
trace preprocessing already validated the operations).
"""

from __future__ import annotations

import enum
from collections.abc import Sequence

#: pseudo file id used for batched buffer flushes (forces one average seek)
FLUSH_FILE_ID = -1

# -- attribution layers --------------------------------------------------------------
#
# Attribution is hot: two to four charges per simulated operation.  Each
# attribution key has a fixed small integer id, so Responses accumulate into
# list slots instead of hashing strings into a dict; `LAYER_NAMES` turns the
# ids back into names for reporting.

#: The attribution keys, indexed by layer id: the three hierarchy layers and
#: the flash-reclamation pseudo-layer.
LAYER_NAMES = ("dram", "sram", "device", "cleaning")
DRAM_LAYER_ID, SRAM_LAYER_ID, DEVICE_LAYER_ID, CLEANING_LAYER_ID = range(4)


class RequestKind(enum.Enum):
    """What a request asks a layer to do.

    ``FLUSH`` is an internal kind: a batch of buffered blocks travelling
    toward the device (SRAM drains, write-back evictions).  Intermediate
    layers forward it verbatim — a flush must not be re-absorbed by the
    buffer that just emitted it.
    """

    READ = "read"
    WRITE = "write"
    DELETE = "delete"
    FLUSH = "flush"


class Request:
    """One operation travelling down the layer stack.

    Attributes:
        kind: what the receiving layer should do.
        time: issue time in trace seconds.  Sub-requests created by a
            layer carry the time at which the parent layer finished its
            own part of the work.
        blocks: device block numbers touched, in transfer order.
        size: transfer length in bytes, the block footprint
            ``len(blocks) * block_bytes``.
        file_id: originating file (drives the same-file no-seek rule).
        background: the request rides behind a device access that already
            happened — it costs device time and energy but must not delay
            the foreground response.
    """

    __slots__ = ("kind", "time", "blocks", "size", "file_id", "background")

    def __init__(
        self,
        kind: RequestKind,
        time: float,
        blocks: Sequence[int],
        size: int,
        file_id: int,
        background: bool = False,
    ) -> None:
        self.kind = kind
        self.time = time
        self.blocks = blocks
        self.size = size
        self.file_id = file_id
        self.background = background

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = " bg" if self.background else ""
        return (
            f"Request({self.kind.value} t={self.time:.6f} "
            f"{len(self.blocks)} blk{flag})"
        )


class RequestPool:
    """A free-list of :class:`Request` shells recycled across operations.

    Layers create short-lived sub-requests (cache misses travelling down,
    buffer drains, write-back evictions) whose lifetime ends when the
    downstream ``submit`` returns.  Acquiring from the pool and releasing
    on the way out turns those allocations into two list operations.

    The pool holds bare shells only — ``release`` drops the block
    reference so recycled requests never pin block tuples alive.
    """

    __slots__ = ("_free",)

    def __init__(self) -> None:
        self._free: list[Request] = []

    def acquire(
        self,
        kind: RequestKind,
        time: float,
        blocks: Sequence[int],
        size: int,
        file_id: int,
        background: bool = False,
    ) -> Request:
        free = self._free
        if free:
            request = free.pop()
            request.kind = kind
            request.time = time
            request.blocks = blocks
            request.size = size
            request.file_id = file_id
            request.background = background
            return request
        return Request(kind, time, blocks, size, file_id, background)

    def release(self, request: Request) -> None:
        request.blocks = ()
        self._free.append(request)

    def __len__(self) -> int:
        return len(self._free)


#: The process-wide pool the layer stack draws sub-requests from.
REQUEST_POOL = RequestPool()


class Response:
    """The completed journey of one :class:`Request` through the stack.

    ``attribution`` maps layer name -> ``(latency_s, energy_j)``; the
    latency components sum (to float precision) to ``response_s``, because
    every second of a response is charged to exactly one layer.  Energy
    components cover the *active* energy the request caused; standby and
    idle energy accrues to the layers between requests and appears only in
    the run-level breakdown.

    Internally the attribution lives in flat arrays indexed by layer id
    (``_lat`` / ``_en``), with ``_touched`` recording first-touch
    order so the name-keyed view iterates exactly like the dict it
    replaced.  The batched driver recycles one Response across a whole
    trace via :meth:`reset`.
    """

    __slots__ = ("request", "issued_at", "completed_at", "_lat", "_en", "_touched")

    def __init__(self, request: Request, issued_at: float) -> None:
        self.request = request
        self.issued_at = issued_at
        self.completed_at = issued_at
        self._lat = [0.0] * len(LAYER_NAMES)
        self._en = [0.0] * len(LAYER_NAMES)
        self._touched: list[int] = []

    @property
    def response_s(self) -> float:
        """Foreground response time in seconds."""
        return self.completed_at - self.issued_at

    def reset(self, request: Request, issued_at: float) -> None:
        """Recycle this Response for a new request (batched hot path)."""
        self.request = request
        self.issued_at = issued_at
        self.completed_at = issued_at
        touched = self._touched
        if touched:
            lat = self._lat
            en = self._en
            for layer_id in touched:
                lat[layer_id] = 0.0
                en[layer_id] = 0.0
            del touched[:]

    def attribute_id(self, layer_id: int, latency_s: float, energy_j: float) -> None:
        """Charge ``latency_s``/``energy_j`` to layer ``layer_id``."""
        touched = self._touched
        if layer_id not in touched:
            touched.append(layer_id)
        self._lat[layer_id] += latency_s
        self._en[layer_id] += energy_j

    @property
    def attribution(self) -> dict[str, tuple[float, float]]:
        """Name-keyed ``{layer: (latency_s, energy_j)}``, first-touch order."""
        lat = self._lat
        en = self._en
        names = LAYER_NAMES
        return {
            names[layer_id]: (lat[layer_id], en[layer_id])
            for layer_id in self._touched
        }

    @property
    def attributed_latency_s(self) -> float:
        """Sum of the per-layer latency components."""
        lat = self._lat
        return sum(lat[layer_id] for layer_id in self._touched)

    @property
    def attributed_energy_j(self) -> float:
        """Sum of the per-layer active-energy components."""
        en = self._en
        return sum(en[layer_id] for layer_id in self._touched)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Response({self.request.kind.value} {self.response_s * 1e3:.3f} ms "
            f"via {list(self.attribution)})"
        )
