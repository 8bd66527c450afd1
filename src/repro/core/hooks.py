"""A lightweight hook bus for the request path.

Cross-cutting subscribers — the fault injector's power-loss schedule, the
metrics collector, regression probes in tests — attach here instead of
being special-cased inside the simulator loop:

* ``on_submit(request)`` fires before a request touches any layer;
* ``on_complete(response)`` fires after the stack finished it;
* ``on_crash(at, recovered_at)`` fires after a power loss was recovered.

Emission is allocation-free and O(subscribers).  The request path
(:meth:`~repro.core.layers.LayerStack.run_batch`) asks the bus to
*compile* ``on_submit`` and ``on_complete`` once per batch — ``None`` when
nobody listens (the emit disappears from the loop), the bound subscriber
itself when exactly one listens (the common case: the metrics collector),
and a closure over a frozen subscriber tuple otherwise.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.request import Request, Response

SubmitHook = Callable[[Request], None]
CompleteHook = Callable[[Response], None]
CrashHook = Callable[[float, float], None]


class HookBus:
    """Subscribe/emit for the three request-path events.

    Each event keeps its subscribers in a list, in subscription order.
    """

    __slots__ = ("submit_hooks", "complete_hooks", "crash_hooks")

    def __init__(self) -> None:
        self.submit_hooks: list[SubmitHook] = []
        self.complete_hooks: list[CompleteHook] = []
        self.crash_hooks: list[CrashHook] = []

    # -- subscription --------------------------------------------------------------

    def on_submit(self, hook: SubmitHook) -> SubmitHook:
        """Call ``hook(request)`` before each request enters the stack."""
        self.submit_hooks.append(hook)
        return hook

    def on_complete(self, hook: CompleteHook) -> CompleteHook:
        """Call ``hook(response)`` after each request completes."""
        self.complete_hooks.append(hook)
        return hook

    def on_crash(self, hook: CrashHook) -> CrashHook:
        """Call ``hook(at, recovered_at)`` after each power-loss recovery."""
        self.crash_hooks.append(hook)
        return hook

    # Transient subscribers (an ObservabilitySession attaches for one run
    # and must detach cleanly) need removal.  Removing is tolerant of
    # double-detach; compiled emitters hold their snapshot and are
    # unaffected mid-batch, exactly like late subscription.

    def off_complete(self, hook: CompleteHook) -> None:
        """Remove a previously subscribed complete hook (no-op if absent)."""
        if hook in self.complete_hooks:
            self.complete_hooks.remove(hook)

    def off_crash(self, hook: CrashHook) -> None:
        """Remove a previously subscribed crash hook (no-op if absent)."""
        if hook in self.crash_hooks:
            self.crash_hooks.remove(hook)

    # -- emission ------------------------------------------------------------------

    def emit_crash(self, at: float, recovered_at: float) -> None:
        for hook in self.crash_hooks:
            hook(at, recovered_at)

    # -- compiled emission (the request path) --------------------------------------

    @staticmethod
    def _compile(hooks: list) -> Callable | None:
        if not hooks:
            return None
        if len(hooks) == 1:
            return hooks[0]
        frozen = tuple(hooks)

        def emit(*args: object) -> None:
            for hook in frozen:
                hook(*args)

        return emit

    def compiled_submit(self) -> SubmitHook | None:
        """A direct-call emitter for ``on_submit``, or None when unused.

        Snapshot semantics: subscribers added after compilation are not
        seen by the holder of the compiled emitter.
        """
        return self._compile(self.submit_hooks)

    def compiled_complete(self) -> CompleteHook | None:
        """A direct-call emitter for ``on_complete``, or None when unused."""
        return self._compile(self.complete_hooks)
