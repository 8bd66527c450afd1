"""Worker-count resolution shared by every engine front end.

``repro run``, ``repro serve``, and ``repro fleet`` all accept
``--jobs auto`` (their default): one worker per CPU, minus one core left
for the parent process (the scheduler, the HTTP server, the aggregator).
Centralising the rule here keeps the three fronts consistent — and keeps
"auto" meaning the same thing inside the service as on the command line.
"""

from __future__ import annotations

import argparse
import os

from repro.errors import ConfigurationError

#: The sentinel accepted (case-insensitively) wherever a job count goes.
AUTO = "auto"


def auto_jobs() -> int:
    """The ``--jobs auto`` worker count: ``cpu_count - 1``, at least 1.

    One core is reserved for the submitting process — the scheduler's
    window management, the serve front's event loop, or the fleet
    aggregator — so workers do not contend with their own coordinator.
    """
    return max(1, (os.cpu_count() or 2) - 1)


def resolve_jobs(value: int | str | None) -> int:
    """Normalise a jobs request (``None``/``"auto"``/int) to a count.

    Anything else — a bool, a float such as ``2.5`` from a JSON body —
    is a :class:`ConfigurationError`, never a count."""
    if value is None:
        return auto_jobs()
    count: object = value
    if isinstance(value, str):
        if value.strip().lower() == AUTO:
            return auto_jobs()
        try:
            count = int(value)
        except ValueError:
            pass
    if isinstance(count, bool) or not isinstance(count, int):
        raise ConfigurationError(
            f"jobs must be a positive integer or 'auto', got {value!r}"
        )
    if count < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {count}")
    return count


def jobs_arg(text: str) -> int:
    """Argparse type for ``--jobs``: a positive integer or ``auto``."""
    try:
        return resolve_jobs(text)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
