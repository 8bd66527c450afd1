"""Fleet populations: deterministic sampling of heterogeneous devices.

A fleet is ``N`` mobile computers drawn from a fixed product mix — each
device gets its own workload (mac/dos/hp in paper-motivated proportions),
storage device, DRAM/SRAM sizes, spin-down timeout, flash utilization, and
trace length.  Every per-device decision is driven by a seed derived as
``sha256("fleet:<seed>:device:<index>")``, so device ``i`` of fleet
``(seed, devices)`` is *the same device* no matter how the fleet is
sharded across work units or worker processes — the property fleet
aggregation's byte-identical guarantee rests on.

:func:`simulate_device` runs one sampled device through the standard
simulator and flattens the result into the metric row the aggregator
consumes (energy, mean response times, peak wear).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache

from repro.core.config import SimulationConfig
from repro.core.simulator import simulate
from repro.errors import ConfigurationError
from repro.traces.workloads import workload_by_name
from repro.units import KB, MB

#: Workload generators are immutable (``generate`` seeds its own RNG per
#: call), so one instance per process serves every device — the factory
#: lookup rebuilt a spec table per device before this was memoized.
_workload = lru_cache(maxsize=None)(workload_by_name)

#: Workload share of the fleet (weights need not sum to 1).  The mix
#: leans toward mac — the paper's longest, most interactive trace.
WORKLOAD_MIX: tuple[tuple[str, float], ...] = (
    ("mac", 0.45),
    ("dos", 0.30),
    ("hp", 0.25),
)

#: Storage-device share of the fleet: both disks, the flash disk, and the
#: flash card from the paper's Table 4 datasheet rows.
DEVICE_MIX: tuple[tuple[str, float], ...] = (
    ("cu140-datasheet", 0.30),
    ("kh-datasheet", 0.15),
    ("sdp5-datasheet", 0.25),
    ("intel-datasheet", 0.30),
)

#: Per-device variation axes (uniform draws from these choices).
DRAM_CHOICES: tuple[int, ...] = (1 * MB, 2 * MB, 4 * MB)
SRAM_CHOICES: tuple[int, ...] = (0, 32 * KB)
SPIN_DOWN_CHOICES: tuple[float, ...] = (2.0, 5.0, 10.0)
UTILIZATION_CHOICES: tuple[float, ...] = (0.7, 0.8, 0.9)

#: Trace-length floor: short enough for million-device fleets at small
#: scale, long enough that the warm-start prefix leaves measured ops.
MIN_DEVICE_OPS = 64

#: Metric columns every device row carries (``wear_max`` is None for
#: devices without erase cycles — disks and the flash disk's DRAM tier).
METRIC_FIELDS = ("energy_j", "read_ms", "write_ms", "overall_ms", "wear_max")


@dataclass(frozen=True)
class FleetSpec:
    """One fleet request: population size plus the sampling parameters.

    ``scale`` shrinks every device's trace proportionally (the repo-wide
    convention); ``ops_per_device`` is the full-scale nominal trace
    length, jittered ±50% per device.
    """

    devices: int = 12
    seed: int = 0
    scale: float = 1.0
    ops_per_device: int = 400

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise ConfigurationError(f"devices must be >= 1, got {self.devices}")
        if not 0.0 < self.scale <= 1.0:
            raise ConfigurationError(f"scale must be in (0, 1], got {self.scale}")
        if self.ops_per_device < 1:
            raise ConfigurationError(
                f"ops_per_device must be >= 1, got {self.ops_per_device}"
            )

    def describe(self) -> dict[str, float | int]:
        """The shard-independent identity of this fleet (summary header)."""
        return {
            "devices": self.devices,
            "seed": self.seed,
            "scale": self.scale,
            "ops_per_device": self.ops_per_device,
        }


@dataclass(frozen=True)
class DeviceSample:
    """One fully-determined fleet member, ready to simulate."""

    index: int
    seed: int
    workload: str
    device: str
    n_ops: int
    dram_bytes: int
    sram_bytes: int
    spin_down_timeout_s: float
    flash_utilization: float


def device_seed(fleet_seed: int, index: int) -> int:
    """The per-device RNG seed: a sha256 digest of (fleet seed, index).

    Hash-derived rather than ``fleet_seed + index`` so neighbouring
    fleets do not share device streams, and independent of sharding by
    construction.
    """
    digest = hashlib.sha256(f"fleet:{fleet_seed}:device:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _weighted(rng: random.Random, mix: tuple[tuple[str, float], ...]) -> str:
    """One weighted draw from ``mix`` (name, weight) pairs."""
    total = sum(weight for _, weight in mix)
    point = rng.random() * total
    for name, weight in mix:
        point -= weight
        if point < 0:
            return name
    return mix[-1][0]


def sample_device(spec: FleetSpec, index: int) -> DeviceSample:
    """Device ``index`` of the fleet — identical across any sharding.

    The draw order below is part of the fleet's deterministic identity:
    reordering the draws re-rolls every population.
    """
    if not 0 <= index < spec.devices:
        raise ConfigurationError(
            f"device index {index} outside fleet of {spec.devices}"
        )
    seed = device_seed(spec.seed, index)
    rng = random.Random(seed)
    workload = _weighted(rng, WORKLOAD_MIX)
    device = _weighted(rng, DEVICE_MIX)
    jitter = rng.uniform(0.5, 1.5)
    n_ops = max(MIN_DEVICE_OPS, int(round(spec.ops_per_device * spec.scale * jitter)))
    dram = rng.choice(DRAM_CHOICES)
    sram = rng.choice(SRAM_CHOICES)
    spin_down = rng.choice(SPIN_DOWN_CHOICES)
    utilization = rng.choice(UTILIZATION_CHOICES)
    if workload == "hp":
        dram = 0  # the paper's convention: no DRAM cache for the hp trace
    return DeviceSample(
        index=index,
        seed=seed,
        workload=workload,
        device=device,
        n_ops=n_ops,
        dram_bytes=dram,
        sram_bytes=sram,
        spin_down_timeout_s=spin_down,
        flash_utilization=utilization,
    )


def sample_devices(spec: FleetSpec, indices=None) -> list[DeviceSample]:
    """Sample a slice of the fleet (default: all of it)."""
    if indices is None:
        indices = range(spec.devices)
    return [sample_device(spec, index) for index in indices]


def simulate_device(sample: DeviceSample) -> dict[str, object]:
    """Simulate one fleet member and flatten it to an aggregation row.

    The trace is generated from the device's own seed (not the shared
    trace store — every fleet member's trace is unique), so a row depends
    only on the sample, never on which shard or worker computed it.
    """
    trace = _workload(sample.workload).generate(
        seed=sample.seed, n_ops=sample.n_ops
    )
    config = SimulationConfig(
        device=sample.device,
        dram_bytes=sample.dram_bytes,
        sram_bytes=sample.sram_bytes,
        spin_down_timeout_s=sample.spin_down_timeout_s,
        flash_utilization=sample.flash_utilization,
    )
    result = simulate(trace, config)
    wear_max = (
        float(result.wear.max_erasures) if result.wear is not None else None
    )
    return {
        "device": sample.index,
        "workload": sample.workload,
        "spec": sample.device,
        "ops": sample.n_ops,
        "energy_j": result.energy_j,
        "read_ms": result.read_response.mean_ms,
        "write_ms": result.write_response.mean_ms,
        "overall_ms": result.overall_response.mean_ms,
        "wear_max": wear_max,
    }
