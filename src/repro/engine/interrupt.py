"""Signal-to-cancel wiring for the engine's CLI front ends.

``repro run`` and ``repro fleet`` request cooperative cancellation on
SIGINT/SIGTERM: the handler sets a :class:`threading.Event` that
:func:`repro.engine.scheduler.execute` polls, so in-flight futures are
cancelled, unfinished units land in the manifest as ``cancelled``, and
the process can exit with a ``--resume`` hint instead of a traceback.
A second signal while cancellation is already underway falls back to
``KeyboardInterrupt`` — the escape hatch when a worker refuses to die.
"""

from __future__ import annotations

import contextlib
import signal
import threading
from typing import Iterator

#: Exit code for a run stopped by SIGINT/SIGTERM (128 + SIGINT).
INTERRUPT_EXIT_CODE = 130


#: The signals :func:`cancel_on_signals` turns into a cancel request.
CANCEL_SIGNALS = (signal.SIGINT, signal.SIGTERM)


@contextlib.contextmanager
def cancel_on_signals() -> Iterator[threading.Event]:
    """Yield a cancel event that SIGINT and SIGTERM set.

    Handlers are installed on entry and the previous ones restored on
    exit, so nested use (tests, the serve front's own asyncio handlers)
    stays well-behaved.  Only usable from the main thread — callers on
    other threads should pass their own event to ``execute`` directly.
    """
    cancel = threading.Event()

    def handler(signum: int, frame) -> None:
        if cancel.is_set():  # second signal: stop cooperating
            raise KeyboardInterrupt
        cancel.set()

    previous = {}
    try:
        for signum in CANCEL_SIGNALS:
            previous[signum] = signal.signal(signum, handler)
        yield cancel
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)
