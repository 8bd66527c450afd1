"""Bit-exact digests of the device paths the equivalence golden misses.

``tests/golden/equivalence_golden.json`` pins one default configuration
per device family.  The digests below pin the rest of each device's
state machine: SRAM in front of a coupled flash disk, the FlashCache
hybrid, erase failures with spare remapping and a power loss on both
flash families, a disk that never spins down, and a 256-device fast
fleet.  Each case digest is the
sha256 of the ``float.hex`` snapshot ``tests/test_fastpath.py`` compares,
plus the reliability record, so any change to a float expression or to
the order of a set, dict or deque mutation shows up here.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import simulate
from repro.faults.plan import FaultPlan
from repro.fleet import FleetSpec, canonical_json, run_fleet
from repro.traces.workloads import workload_by_name
from repro.units import KB, MB
from tests.golden.generate_equivalence_golden import hexify
from tests.test_fastpath import result_snapshot

#: Erase failures (a spare remap and, on the card, one retirement) plus
#: one power loss mid-trace.
FAULTS = FaultPlan(
    seed=5, bad_block_rate=0.05, spare_segments=2, power_loss_times=(400.0,)
)

CASES = {
    "sdp5-coupled-sram": SimulationConfig(
        device="sdp5-datasheet", sram_on_flash=True, sram_bytes=32 * KB,
    ),
    "cu140-flashcache": SimulationConfig(
        device="cu140-datasheet", flash_cache_bytes=4 * MB
    ),
    "intel-faults": SimulationConfig(device="intel-datasheet", fault_plan=FAULTS),
    "sdp5a-faults": SimulationConfig(device="sdp5a-datasheet", fault_plan=FAULTS),
    "kh-never-spin-down": SimulationConfig(
        device="kh-datasheet", spin_down_timeout_s=None
    ),
    "kh-small-sram": SimulationConfig(
        device="kh-datasheet", sram_bytes=4 * KB, spin_down_timeout_s=1.0
    ),
    "cu140-no-dram": SimulationConfig(
        device="cu140-datasheet", dram_bytes=0, spin_down_timeout_s=1.0
    ),
    "intel-tight": SimulationConfig(
        device="intel-datasheet", flash_utilization=0.95
    ),
}

#: sha256 per case on the event path (the batched kernel).
DIGESTS = {
    "sdp5-coupled-sram": (
        "e7518c49547a3697bb4f292e4218b4445a3c58512681a1302259778aeaf4c05b"
    ),
    "cu140-flashcache": (
        "d216f8e2c75b2a67e4730e2379e33c6ac9dbbc866a186de0afa7010de3265611"
    ),
    "intel-faults": (
        "48c3742769df4c400d86673862506ece7b052ce2192a0de9c5508b16e031455d"
    ),
    "sdp5a-faults": (
        "4efff2742a7992c0a20142b093e787d7840d5aaea4e6463ab9dcbe2d5208830e"
    ),
    "kh-never-spin-down": (
        "8311f0bf163ffbe870282298c0548e8a2c1c0dd9d8d212ba4536faec0c4cd41b"
    ),
    "kh-small-sram": (
        "5d2f3df8de36d4651de48bd6feac4cab4137f7a7e3a187f4feb5cde7c0076208"
    ),
    "cu140-no-dram": (
        "c8a76187069feac825499318112062e5f083bf1407522842ffb991677807ed24"
    ),
    "intel-tight": (
        "3dff4b73bc52cd114fd458b7e244c80af2bb7636471ecbc44fd952a5a0600946"
    ),
}

#: The cases inside the vector kernel's envelope, with its own digests.
VECTOR_DIGESTS = {
    "kh-never-spin-down": (
        "de4f353ff94a3d0b68d21c857d46c55652cab13fdce16a27a069ea67dbe96590"
    ),
    "kh-small-sram": (
        "465181db58b1fae8b2f9a390c51f68efd96854bef9a881b8db570468d30b1613"
    ),
    "cu140-no-dram": (
        "c99185f703a6dd66ca25e1c716c60326043b5f6c5e12c82e094931c9c4f52a59"
    ),
    "intel-tight": (
        "d9695034daea28dfd9b8fd485b20d239829fee3743c1e72082bdaba0179e769e"
    ),
}

FLEET_DIGEST = (
    "c2fb5299a3fc69f2f3893cb0f8c04e7597e90da8a659cc8d02a87361dfd442f8"
)


@pytest.fixture(scope="module")
def trace():
    return workload_by_name("dos").generate(seed=7, n_ops=1500)


def _digest(trace, config, kernel: str) -> str:
    result = simulate(trace, config, kernel=kernel)
    assert result.extra.get("kernel") == kernel
    snapshot = result_snapshot(result)
    reliability = result.reliability
    snapshot["reliability"] = hexify(
        reliability.to_dict() if reliability is not None else None
    )
    document = json.dumps(snapshot, sort_keys=True)
    return hashlib.sha256(document.encode()).hexdigest()


@pytest.mark.parametrize("kernel", ["batched"])
@pytest.mark.parametrize("case", list(CASES))
def test_device_path_digest(trace, case, kernel):
    assert _digest(trace, CASES[case], kernel) == DIGESTS[case]


@pytest.mark.parametrize("case", list(VECTOR_DIGESTS))
def test_vector_device_path_digest(trace, case):
    assert _digest(trace, CASES[case], "vector") == VECTOR_DIGESTS[case]


def test_fault_cases_exercise_erase_failures(trace):
    card = simulate(trace, CASES["intel-faults"]).reliability
    assert card.erase_failures > card.remapped_segments > 0
    assert card.retired_segments > 0 and card.power_losses == 1
    flash_disk = simulate(trace, CASES["sdp5a-faults"]).reliability
    assert flash_disk.retired_sectors > 0 and flash_disk.power_losses == 1


def test_vector_cases_exercise_episodes_and_stalls(trace):
    """The vector digests cover the kernels' data-dependent paths: each
    disk case spins up (so the scan hands ops to scalar episodes), and
    the tight card stalls writes on foreground cleaning."""
    for case in ("kh-small-sram", "cu140-no-dram"):
        stats = simulate(trace, CASES[case], kernel="vector").device_stats
        assert stats["spin_ups"] > 0, case
    card = simulate(trace, CASES["intel-tight"], kernel="vector").device_stats
    assert card["stalled_writes"] > 0 and card["segments_cleaned"] > 0


def test_fast_256_device_fleet_digest():
    spec = FleetSpec(devices=256, seed=7, scale=0.1, ops_per_device=400)
    run = run_fleet(spec, jobs=1, shards=1, fast=True)
    assert run.ok
    document = canonical_json(run.summary)
    assert hashlib.sha256(document.encode()).hexdigest() == FLEET_DIGEST
