"""Disk spin-down: a fixed idle timeout, or none."""

import pytest

from repro.devices.disk import MagneticDisk, SpindleState
from repro.devices.specs import CU140_DATASHEET
from repro.errors import ConfigurationError
from repro.units import KB


def idle_after_read(timeout, idle_s):
    """Read once, idle ``idle_s`` seconds; return the read's completion,
    the times spin-downs started, and the disk."""
    disk = MagneticDisk(CU140_DATASHEET, spin_down_timeout_s=timeout)
    events = []
    disk.set_obs_sink(lambda kind, at, duration, name: events.append((kind, at)))
    done = disk.read(0.0, KB, [0], file_id=1)
    disk.advance(done + idle_s)
    return done, [at for kind, at in events if kind == "spin_down"], disk


def test_fixed_timeout_deadline():
    done, starts, _ = idle_after_read(5.0, 60.0)
    assert starts == [done + 5.0]
    # The deadline itself is still idle time.
    _, starts, disk = idle_after_read(5.0, 5.0)
    assert starts == []
    assert disk.state is SpindleState.SPINNING


def test_fixed_timeout_zero_allowed():
    done, starts, _ = idle_after_read(0.0, 1.0)
    assert starts == [done]


def test_fixed_timeout_negative_rejected():
    with pytest.raises(ConfigurationError):
        MagneticDisk(CU140_DATASHEET, spin_down_timeout_s=-1.0)
    with pytest.raises(ConfigurationError):
        MagneticDisk(CU140_DATASHEET, spin_down_timeout_s=float("nan"))


def test_never_policy():
    # An infinite timeout never fires either.
    for timeout in (None, float("inf")):
        _, starts, disk = idle_after_read(timeout, 10_000.0)
        assert starts == []
        assert disk.state is SpindleState.SPINNING
