"""The tolerance contract every fast path is held to.

Three parts of the reproduction answer through a fast stand-in for a
slower ground truth, and each is trusted only because it is checked field
by field against that ground truth:

* the NumPy **vector kernel** against the batched event path
  (:func:`compare_results`);
* the **fleet fast path** (``repro fleet --fast``) against the reference
  population (:func:`compare_summaries`);
* **imported and fitted traces** against a Table 3 row
  (:func:`check_conformance`).

All three use one rule.  A gate flattens each side into named fields and
declares a :class:`FieldTolerance` per field; :func:`compare` checks the
fields and returns a :class:`Report` with one :class:`FieldCheck` per
field, which renders for people and serialises for CI artifacts
(``repro fit --report-out``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from numbers import Real
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:
    from repro.core.results import SimulationResult
    from repro.traces.stats import TraceStatistics


# ---------------------------------------------------------------------------
# The rule, the compare function, the report


@dataclass(frozen=True, slots=True)
class FieldTolerance:
    """Declared tolerance for one field.

    A candidate value conforms when ``|candidate - reference|`` is within
    ``max(abs, rel * |reference|)``; ``exact`` fields must be equal.  A
    field absent on one side (or ``None``) conforms only to an absent
    field.
    """

    rel: float = 0.0
    abs: float = 0.0
    exact: bool = False

    def allowed(self, reference: float) -> float:
        return max(self.abs, self.rel * abs(reference))

    def describe(self) -> str:
        if self.exact:
            return "exact"
        parts = []
        if self.rel:
            parts.append(f"rel {self.rel:g}")
        if self.abs:
            parts.append(f"abs {self.abs:g}")
        return " or ".join(parts) or "exact"


EXACT = FieldTolerance(exact=True)


def _show(value: Any) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


@dataclass(frozen=True, slots=True)
class FieldCheck:
    """One field's verdict."""

    field: str
    reference: Any
    candidate: Any
    deviation: float
    tolerance: str
    ok: bool

    def describe(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        return (
            f"{self.field}: candidate {_show(self.candidate)} vs reference "
            f"{_show(self.reference)} (deviation {self.deviation:.3g}, "
            f"tolerance {self.tolerance}) {verdict}"
        )


@dataclass(frozen=True, slots=True)
class Report:
    """Field-by-field verdict of a candidate against a reference.

    Produced by :func:`compare`; serialisable with :meth:`to_dict` so CI
    can upload it as an artifact.
    """

    reference_name: str
    candidate_name: str
    checks: tuple[FieldCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def problems(self) -> list[str]:
        """Human-readable description of every failing field."""
        return [check.describe() for check in self.checks if not check.ok]

    def check(self, field: str) -> FieldCheck:
        for check in self.checks:
            if check.field == field:
                return check
        raise KeyError(field)

    def to_dict(self) -> dict[str, Any]:
        return {
            "reference": self.reference_name,
            "candidate": self.candidate_name,
            "ok": self.ok,
            "checks": [asdict(check) for check in self.checks],
        }

    def render(self) -> str:
        lines = [
            f"conformance: {self.candidate_name} vs {self.reference_name} "
            f"— {'OK' if self.ok else 'FAIL'}"
        ]
        lines.extend(f"  {check.describe()}" for check in self.checks)
        return "\n".join(lines)


def compare(
    reference: Mapping[str, Any],
    candidate: Mapping[str, Any],
    table: Mapping[str, FieldTolerance],
    *,
    reference_name: str = "reference",
    candidate_name: str = "candidate",
) -> Report:
    """Check every field ``table`` names, in field-name order.

    Fields outside ``table`` are not checked: declare everything you rely
    on, because silence is not a pass.
    """
    checks = []
    for field in sorted(table):
        tolerance = table[field]
        ref = reference.get(field)
        cand = candidate.get(field)
        if isinstance(ref, Real) and isinstance(cand, Real):
            deviation = float(abs(cand - ref))
            ok = bool(cand == ref) or (
                not tolerance.exact and deviation <= tolerance.allowed(ref)
            )
        else:
            ok = bool(cand == ref)
            deviation = 0.0 if ok else math.inf
        checks.append(FieldCheck(
            field=field,
            reference=ref,
            candidate=cand,
            deviation=deviation,
            tolerance=tolerance.describe(),
            ok=ok,
        ))
    return Report(reference_name, candidate_name, tuple(checks))


# ---------------------------------------------------------------------------
# Gate 1: the vector kernel against the batched event path
#
# The vector kernel reorders floating-point reductions (``cumsum`` /
# ``maximum.accumulate`` recurrences instead of sequential accumulation,
# ``np.mean`` instead of Welford's algorithm, one standby-power product
# instead of per-operation slices).  Those reassociations move results in
# the last few ulps, so equivalence is declared per field:
#
# * counts (operations, device reads/writes, spin-ups, segments cleaned,
#   erasures, ...) are discrete events and match exactly;
# * energies, durations and response means/maxima/deviations agree to
#   KERNEL_REL_TOL, with a KERNEL_ABS_TOL floor for values near zero;
# * percentiles are compared only while the reference's reservoir is exact
#   (count <= PERCENTILE_EXACT_LIMIT); beyond that the reference reports a
#   seeded random-sample estimate and the kernel the exact quantile, two
#   estimators of the same distribution.
#
# One caveat: the disk kernel's spin-down trigger compares
# ``arrival > completion + timeout`` where ``completion`` carries cumsum
# rounding, so an arrival within ulps of the deadline could flip an episode
# between the two paths.  Trace timestamps are coarse next to spin-down
# timeouts; the equivalence suites pin that this never happens on the
# shipped workloads.

#: Relative tolerance for accumulated floating-point quantities.
KERNEL_REL_TOL = 1e-8

#: Absolute floor for quantities that can be exactly zero.
KERNEL_ABS_TOL = 1e-12

#: Reservoir size above which reference percentiles become estimates
#: (mirrors ``repro.core.metrics._RESERVOIR_SIZE``).
PERCENTILE_EXACT_LIMIT = 4096

KERNEL_CLOSE = FieldTolerance(rel=KERNEL_REL_TOL, abs=KERNEL_ABS_TOL)

#: ``device_stats`` keys that are discrete counters.
KERNEL_COUNTER_KEYS = frozenset(
    {
        "reads", "writes", "bytes_read", "bytes_written",
        "spin_ups", "spin_downs",
        "pre_erased_sector_writes", "coupled_sector_writes",
        "background_erasures", "dirty_sectors", "free_sectors",
        "segments_cleaned", "blocks_copied", "stalled_writes",
        "erased_segments",
    }
)

_RESPONSES = ("read_response", "write_response", "overall_response")
_MOMENTS = ("count", "mean_s", "max_s", "std_s")
_PERCENTILES = ("p50_s", "p95_s", "p99_s")


def result_fields(result: "SimulationResult") -> dict[str, Any]:
    """The comparable fields of a simulation result, flattened."""
    wear = result.wear
    fields: dict[str, Any] = {
        "n_reads": result.n_reads,
        "n_writes": result.n_writes,
        "n_deletes": result.n_deletes,
        "duration_s": result.duration_s,
        "energy_j": result.energy_j,
        "dram_hit_rate": result.dram_hit_rate,
        "wear.total_erasures": None if wear is None else wear.total_erasures,
        "wear.max_erasures": None if wear is None else wear.max_erasures,
    }
    for component, buckets in result.energy_breakdown.items():
        for bucket, joules in buckets.items():
            fields[f"energy[{component}][{bucket}]"] = joules
    for name in _RESPONSES:
        stats = getattr(result, name)
        comparable = _MOMENTS
        if stats.count <= PERCENTILE_EXACT_LIMIT:
            comparable += _PERCENTILES
        for stat in comparable:
            fields[f"{name}.{stat}"] = getattr(stats, stat)
    for key, value in result.device_stats.items():
        fields[f"device_stats[{key}]"] = value
    for layer, cost in result.layer_breakdown.items():
        fields[f"layer[{layer}].latency_s"] = cost["latency_s"]
        fields[f"layer[{layer}].energy_j"] = cost["energy_j"]
    return fields


def _is_count(field: str) -> bool:
    if field.startswith("device_stats["):
        return field[len("device_stats["):-1] in KERNEL_COUNTER_KEYS
    return field.startswith(("n_", "wear.")) or field.endswith(".count")


def compare_results(
    reference: "SimulationResult", candidate: "SimulationResult"
) -> Report:
    """Check ``candidate`` (typically the vector kernel's result) against
    ``reference`` (the batched result) field by field."""
    ref = result_fields(reference)
    cand = result_fields(candidate)
    # An energy bucket the kernel never charged is 0 J; a whole missing
    # component still fails.
    for component, buckets in reference.energy_breakdown.items():
        if component in candidate.energy_breakdown:
            for bucket in buckets:
                cand.setdefault(f"energy[{component}][{bucket}]", 0.0)
    table = {field: EXACT if _is_count(field) else KERNEL_CLOSE for field in ref}
    return compare(ref, cand, table)


# ---------------------------------------------------------------------------
# Gate 2: the fleet fast path against the reference population
#
# The fast path (repro.fleet.synth) may reassociate per-device sampling —
# synthesize traces from the workloads' fitted distributions instead of
# replaying the reference generator op by op — as long as population
# summaries agree within the bounds below.  This follows trace synthesis
# from fitted parameters (Boukhobza & Timsit) and distribution-level
# validation (Al-Maeeni et al.): equivalence is per metric and summary
# statistic, never per device.
#
# Exact: device parameters (workload, spec, trace length, DRAM/SRAM bytes,
# spin-down timeout, flash utilization) come from the reference sampler
# itself, so the summary's device and op counts, the per-workload and
# per-spec tallies, and every metric's count match exactly.  The fast
# summary is also byte-identical for any shard/jobs/transport/cache-replay
# decomposition; tests cover that, not this table.
#
# Approximate (the declared simplifications):
# * traces draw gaps/operations/files/sizes/offsets from counter-keyed
#   streams with the reference's fitted distributions, not its draw
#   sequence, so per-device traces differ while population distributions
#   agree;
# * interarrival chunk rescaling reproduces the distribution of the
#   reference's per-device chunk scale (a binomial session count over a
#   4096-draw chunk) rather than its realized chunk;
# * file deletion/recycling (dos) is not modelled; deleted-file skips and
#   block-id recycling perturb a few percent of dos ops;
# * the DRAM cache is classified by touch distance (an LRU-equivalent
#   window over block touches) instead of a per-block LRU list walk;
# * repeat-run guards (deleted/hot-set checks on "repeat last file") are
#   dropped; measured skip rates are < 0.5% of ops.

#: Fleet size the bounds were calibrated for.  Comparisons on much
#: smaller fleets measure the reference path's own per-seed sampling
#: noise, not fast-path bias.
MIN_CONTRACT_DEVICES = 1024

#: Relative bound per metric per summary statistic, calibrated on
#: 4096-device fleets (scale 0.1, 400 nominal ops) with headroom for
#: seed-to-seed spread.  Calibrated ratios (fast/reference): energy mean
#: 1.09, read mean 0.88 / p90 0.73 (the dos spin-up tail is the loosest
#: corner), write p99 1.20, overall p99 1.16, wear 1.00.
FLEET_TOLERANCES: dict[str, dict[str, float]] = {
    "energy_j": {"mean": 0.20, "p50": 0.15, "p90": 0.25, "p99": 0.30},
    "read_ms": {"mean": 0.30, "p50": 0.15, "p90": 0.45, "p99": 0.40},
    "write_ms": {"mean": 0.20, "p50": 0.15, "p90": 0.25, "p99": 0.40},
    "overall_ms": {"mean": 0.20, "p50": 0.20, "p90": 0.25, "p99": 0.40},
    "wear_max": {"mean": 0.15, "p50": 0.15, "p90": 0.25, "p99": 0.30},
}

_FLEET_TABLE = {
    f"{metric}.{stat}": FieldTolerance(rel=rel)
    for metric, bounds in FLEET_TOLERANCES.items()
    for stat, rel in bounds.items()
}


def summary_fields(summary: Mapping[str, Any]) -> dict[str, Any]:
    """The comparable fields of a ``population_summary`` document."""
    population = summary["population"]
    fields = {
        "devices": population["devices"],
        "total_ops": population["total_ops"],
    }
    for tally in ("workloads", "device_specs"):
        for name, count in population[tally].items():
            fields[f"{tally}[{name}]"] = count
    for metric, bounds in FLEET_TOLERANCES.items():
        stats = population["metrics"][metric]
        # An empty metric carries only its count.
        for stat in ("count", *bounds):
            if stat in stats:
                fields[f"{metric}.{stat}"] = stats[stat]
    return fields


def compare_summaries(
    reference: Mapping[str, Any], fast: Mapping[str, Any]
) -> Report:
    """Check a fast-path population summary against the reference's:
    counts and tallies exact, each metric statistic within its bound."""
    ref = summary_fields(reference)
    cand = summary_fields(fast)
    table = {
        field: _FLEET_TABLE.get(field, EXACT) for field in ref.keys() | cand.keys()
    }
    return compare(ref, cand, table, candidate_name="fast")


# ---------------------------------------------------------------------------
# Gate 3: trace statistics against a Table 3 row
#
# Imports verify against snapshotted reference statistics, fitted
# generators verify their extensions against the source trace's row, and
# the conformance suite round-trips both.

#: :class:`~repro.traces.stats.TraceStatistics` attributes compared as
#: they are.
_STATISTICS = (
    "fraction_reads", "block_size_kbytes", "mean_read_blocks",
    "mean_write_blocks", "interarrival_mean_s", "interarrival_std_s",
    "interarrival_max_s", "distinct_kbytes",
)

#: Import-gate tolerances: a re-import (or format round-trip) of the same
#: trace must reproduce its reference snapshot almost exactly — the slack
#: covers only text-format float rounding.
IMPORT_TOLERANCES: dict[str, FieldTolerance] = {
    "fraction_reads": FieldTolerance(abs=1e-9),
    "fraction_deletes": FieldTolerance(abs=1e-9),
    "block_size_kbytes": EXACT,
    "mean_read_blocks": FieldTolerance(rel=1e-6),
    "mean_write_blocks": FieldTolerance(rel=1e-6),
    "interarrival_mean_s": FieldTolerance(rel=1e-4, abs=1e-6),
    "interarrival_std_s": FieldTolerance(rel=1e-4, abs=1e-6),
    "interarrival_max_s": FieldTolerance(rel=1e-4, abs=1e-6),
    "distinct_kbytes": FieldTolerance(rel=1e-6),
    "duration_per_record": FieldTolerance(rel=1e-4, abs=1e-6),
}

#: Fitted-generator tolerances: a synthetic extension regenerated from a
#: fitted model must land on its source's Table 3 row, but it is a *new
#: realisation* of fitted distributions, not a replay — first moments are
#: tight (the generator rescales gaps to the target mean and sizes are
#: moment-matched), spread and extrema looser (mixture-shape fitting),
#: and distinct-data coverage loosest (Zipf coverage saturates with
#: length; the fitter calibrates the dataset size but a 2x extension
#: legitimately touches more of it).
FITTED_TOLERANCES: dict[str, FieldTolerance] = {
    "fraction_reads": FieldTolerance(abs=0.05),
    "fraction_deletes": FieldTolerance(abs=0.02),
    "block_size_kbytes": EXACT,
    "mean_read_blocks": FieldTolerance(rel=0.25, abs=0.2),
    "mean_write_blocks": FieldTolerance(rel=0.25, abs=0.2),
    #: The realised mean of a bursty mixture is dominated by rare long
    #: gaps, so even a faithful model fluctuates several percent per
    #: realisation at moderate lengths.
    "interarrival_mean_s": FieldTolerance(rel=0.15),
    "interarrival_std_s": FieldTolerance(rel=0.60),
    "interarrival_max_s": FieldTolerance(rel=2.0),
    "distinct_kbytes": FieldTolerance(rel=0.50),
    "duration_per_record": FieldTolerance(rel=0.15),
}


def statistics_fields(stats: "TraceStatistics") -> dict[str, float]:
    """The comparable fields of a Table 3 row.

    ``duration_per_record`` replaces raw duration so references and
    candidates of different lengths (a 2x fitted extension) compare the
    *rate*, and ``fraction_deletes`` pins the dos trace's deletions.
    """
    fields = {name: float(getattr(stats, name)) for name in _STATISTICS}
    records = stats.n_records
    fields["fraction_deletes"] = stats.n_deletes / records if records else 0.0
    fields["duration_per_record"] = (
        stats.duration_s / (records - 1) if records > 1 else 0.0
    )
    return fields


def check_conformance(
    reference: "TraceStatistics",
    candidate: "TraceStatistics",
    *,
    tolerances: Mapping[str, FieldTolerance] | None = None,
) -> Report:
    """Check ``candidate`` statistics against ``reference`` under
    :data:`IMPORT_TOLERANCES`, with ``tolerances`` replacing or extending
    it per field."""
    table = {**IMPORT_TOLERANCES, **(tolerances or {})}
    ref = statistics_fields(reference)
    unknown = sorted(table.keys() - ref.keys())
    if unknown:
        raise KeyError(
            f"unknown conformance field {unknown[0]!r}; expected one of "
            f"{sorted(ref)}"
        )
    return compare(
        ref,
        statistics_fields(candidate),
        table,
        reference_name=reference.name,
        candidate_name=candidate.name,
    )
