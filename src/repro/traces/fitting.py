"""Fit a :class:`~repro.traces.workloads.WorkloadSpec` to any trace.

The paper's synthetic workloads are hand-tuned to Table 3.  This module
closes the loop for *arbitrary* traces — imported (``repro import``) or
synthetic — by learning the generator parameters from the trace itself:

* first-moment fields (read/delete fractions, block size, mean transfer
  sizes, inter-arrival mean and cap) transfer directly from the trace's
  :class:`~repro.traces.stats.TraceStatistics`;
* the inter-arrival *spread* is matched by solving the generator's
  exponential-mixture ``burst_weight`` against the target standard
  deviation with bisection over simulated gap draws (the simulation uses
  the real generator code, so the cap and chunk-rescaling effects are
  priced in);
* file-popularity skew is matched by solving the Zipf exponent whose
  top-decile access mass equals the trace's;
* run locality (``repeat_fraction``, ``sequential_fraction``) and the
  file-size range are measured directly;
* distinct-data coverage is *calibrated*: the fitter generates short
  probe traces and rescales the dataset size until the probe's distinct
  Kbytes matches the source's over the same operation count.

The result is a :class:`FittedWorkload`: a frozen model that emits
arbitrarily long, seed-deterministic extensions through the standard
``WorkloadSpec.generate`` path, serialises to a ``model.json``, and
verifies itself against its source's Table 3 row via
:func:`~repro.contract.check_conformance` with
:data:`~repro.contract.FITTED_TOLERANCES`.

Known limit: the generator's gap mixture cannot be *less* dispersed than
a single exponential, so traces with inter-arrival std below their mean
fit to the pure-exponential floor (std == mean).  None of the paper's
workloads are in that regime.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Any, Mapping

from repro.contract import FITTED_TOLERANCES, Report, check_conformance
from repro.errors import ConfigurationError, TraceError
from repro.traces.record import Operation
from repro.traces.stats import TraceStatistics, compute_statistics
from repro.traces.trace import Trace
from repro.traces.workloads import WorkloadSpec, _file_table, _gap_chunk
from repro.units import KB

#: On-disk model format marker (``model.json``).
MODEL_FORMAT = "repro-fitted-workload"
MODEL_VERSION = 1

#: Probe length cap for calibration rounds — enough for stable moments
#: without making ``repro fit`` slow on long traces.
_PROBE_OPS = 40_000
#: Bound on the probe-generate-rescale loop that matches distinct-data
#: coverage and realised transfer sizes.
_CALIBRATION_ROUNDS = 3
#: Generator seed of every calibration probe.
_PROBE_SEED = 0
#: Burst-mean scale held fixed while ``burst_weight`` is solved.
_BURST_MEAN_SCALE = 0.1


@dataclass(frozen=True)
class FittedWorkload:
    """A workload model learned from a trace.

    ``spec`` drives the standard synthetic generator; ``reference`` is
    the source trace's Table 3 row, kept so any extension can be held to
    it (:meth:`verify`).  Instances are immutable and serialise to a
    stable JSON document whose :meth:`content_digest` keys engine
    caches.
    """

    spec: WorkloadSpec
    reference: TraceStatistics
    source: str

    # -- generation --------------------------------------------------------

    def generate(self, seed: int = 0, n_ops: int | None = None) -> Trace:
        """Emit a seed-deterministic extension of the fitted workload.

        ``n_ops`` defaults to the source trace's record count; any
        length is legal (the model is a generator, not a replay).
        """
        if n_ops is None:
            n_ops = self.reference.n_records
        trace = self.spec.generate(seed=seed, n_ops=n_ops)
        trace.metadata.update(
            {
                "generator": "FittedWorkload",
                "fitted_from": self.source,
                "model_digest": self.content_digest(),
            }
        )
        return trace

    def verify(
        self, *, seed: int = 0, length: float = 2.0
    ) -> Report:
        """Generate an extension ``length`` times the source's record
        count and check it against the source's Table 3 row within
        :data:`FITTED_TOLERANCES`."""
        extension = self.generate(seed=seed, n_ops=self.extension_ops(length))
        return check_conformance(
            self.reference,
            compute_statistics(extension),
            tolerances=FITTED_TOLERANCES,
        )

    def extension_ops(self, length: float) -> int:
        """Record count of an extension ``length`` times the source's.

        Raises :class:`ConfigurationError` unless ``length`` is > 0 and
        the count is finite (which rules out NaN and infinite lengths).
        """
        n_ops = self.reference.n_records * length
        if not (length > 0 and math.isfinite(n_ops)):
            raise ConfigurationError(
                f"extension length must be > 0 and give a finite record "
                f"count, got {length!r}"
            )
        return max(2, int(round(n_ops)))

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        spec_dict = {
            field.name: getattr(self.spec, field.name)
            for field in dataclass_fields(self.spec)
        }
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "source": self.source,
            "reference": self.reference.to_dict(),
            "spec": spec_dict,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FittedWorkload":
        if data.get("format") != MODEL_FORMAT:
            raise TraceError(
                f"not a fitted-workload model (format="
                f"{data.get('format')!r}, expected {MODEL_FORMAT!r})"
            )
        if data.get("version") != MODEL_VERSION:
            raise TraceError(
                f"unsupported fitted-workload model version "
                f"{data.get('version')!r} (this build reads "
                f"{MODEL_VERSION})"
            )
        try:
            spec = WorkloadSpec(**data["spec"])
            reference = TraceStatistics.from_dict(data["reference"])
        except (KeyError, TypeError) as exc:
            raise TraceError(f"malformed fitted-workload model: {exc}") from exc
        return cls(
            spec=spec, reference=reference, source=str(data.get("source", ""))
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )

    @classmethod
    def load(cls, path: str | Path) -> "FittedWorkload":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            raise TraceError(f"no fitted-workload model at {path}") from None
        except json.JSONDecodeError as exc:
            raise TraceError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise TraceError(f"{path}: model must be a JSON object")
        return cls.from_dict(data)

    def content_digest(self) -> str:
        """Stable content hash of the model — what cache keys hash, so a
        re-fit model at the same path invalidates cached results."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Fitting.


def fit_trace(
    trace: Trace,
    *,
    name: str | None = None,
    source: str | None = None,
) -> FittedWorkload:
    """Learn a :class:`FittedWorkload` from ``trace``."""
    if len(trace) < 2:
        raise TraceError(
            f"cannot fit {trace.name!r}: need >= 2 records, got {len(trace)}"
        )
    stats = compute_statistics(trace)
    fitted_name = name or f"fitted-{trace.name}"
    delete_fraction = stats.n_deletes / stats.n_records
    read_fraction = min(stats.fraction_reads, 1.0 - delete_fraction)

    repeat = _repeat_fraction(trace)
    sequential = _sequential_share(trace, repeat)
    min_blocks, max_blocks = _file_size_range(trace)
    zipf = _fit_zipf_exponent(trace)
    burst_weight = _fit_burst_weight(stats)

    # Duration is pinned so the spec's default operation count equals the
    # source's record count: the model extends by *operations*, and the
    # per-record rate is what conformance compares.
    spec = WorkloadSpec(
        name=fitted_name,
        duration_s=stats.interarrival_mean_s * stats.n_records,
        distinct_kbytes=max(1, int(round(stats.distinct_kbytes))),
        read_fraction=read_fraction,
        block_size=trace.block_size,
        mean_read_blocks=max(1.0, stats.mean_read_blocks),
        mean_write_blocks=max(1.0, stats.mean_write_blocks),
        interarrival_mean_s=stats.interarrival_mean_s,
        interarrival_max_s=max(
            stats.interarrival_max_s, stats.interarrival_mean_s
        ),
        burst_weight=burst_weight,
        burst_mean_scale=_BURST_MEAN_SCALE,
        delete_fraction=delete_fraction,
        zipf_exponent=zipf,
        repeat_fraction=repeat,
        sequential_fraction=sequential,
        min_file_blocks=min_blocks,
        max_file_blocks=max_blocks,
    )
    spec = _calibrate(spec, trace, stats)
    return FittedWorkload(
        spec=spec, reference=stats, source=source or trace.name
    )


def _replace(spec: WorkloadSpec, **changes: Any) -> WorkloadSpec:
    values = {
        field.name: getattr(spec, field.name)
        for field in dataclass_fields(spec)
    }
    values.update(changes)
    return WorkloadSpec(**values)


def _repeat_fraction(trace: Trace) -> float:
    """Fraction of operations that re-touch the immediately previous
    file — the generator's run-locality knob, measured directly."""
    repeats = 0
    previous: int | None = None
    for record in trace:
        if previous is not None and record.file_id == previous:
            repeats += 1
        previous = record.file_id
    if len(trace) < 2:
        return 0.0
    return min(0.95, repeats / (len(trace) - 1))


def _sequential_share(trace: Trace, repeat: float) -> float:
    """Generator ``sequential_fraction`` implied by the trace.

    The generator only continues sequentially when the same file is
    re-touched, so the observed whole-trace sequentiality is roughly
    ``repeat * sequential_fraction``; invert that, conservatively.
    """
    sequential = 0
    total = 0
    last_file: int | None = None
    last_end = -1
    for record in trace:
        if record.op is Operation.DELETE:
            continue
        total += 1
        if record.file_id == last_file and record.offset == last_end:
            sequential += 1
        last_file = record.file_id
        last_end = record.end_offset
    if not total:
        return 0.0
    observed = sequential / total
    return min(0.95, observed / max(repeat, 0.05))


def _file_size_range(trace: Trace) -> tuple[int, int]:
    """File-size bounds (blocks) from the extents the trace touches."""
    extents: dict[int, int] = {}
    for record in trace:
        if record.size <= 0:
            continue
        end = record.end_offset
        if end > extents.get(record.file_id, 0):
            extents[record.file_id] = end
    if not extents:
        return 4, 64
    sizes = sorted(
        max(1, -(-extent // trace.block_size)) for extent in extents.values()
    )
    low = sizes[max(0, int(len(sizes) * 0.05) - 1)]
    high = sizes[min(len(sizes) - 1, int(len(sizes) * 0.95))]
    return max(1, low), max(high, low, 4)


def _fit_zipf_exponent(trace: Trace) -> float:
    """Solve the Zipf exponent whose top-decile mass matches the trace's.

    The generator draws files from a Zipf-ranked popularity law; its
    skew is summarised by the fraction of accesses landing on the top
    10% of files.  That scalar is measured on the trace and the exponent
    solved by bisection (the mass is monotone in the exponent).
    """
    counts = Counter(record.file_id for record in trace)
    n_files = len(counts)
    if n_files < 10:
        return 0.0
    total = sum(counts.values())
    top_k = max(1, n_files // 10)
    target = sum(sorted(counts.values(), reverse=True)[:top_k]) / total

    def top_mass(exponent: float) -> float:
        weights = [1.0 / (rank + 1) ** exponent for rank in range(n_files)]
        return sum(weights[:top_k]) / sum(weights)

    low, high = 0.0, 4.0
    if target <= top_mass(low):
        return low
    if target >= top_mass(high):
        return high
    for _ in range(40):
        mid = (low + high) / 2.0
        if top_mass(mid) < target:
            low = mid
        else:
            high = mid
    return (low + high) / 2.0


#: Burst weights searched when matching inter-arrival spread.  A grid,
#: not bisection: the cap at ``interarrival_max_s`` makes realised std
#: *non-monotone* in the weight (as the weight approaches 1 the mid
#: component degenerates into rare capped spikes and the spread
#: collapses), so a root-finder can converge on a pathological weight.
_BURST_WEIGHT_GRID = (
    0.0, 0.2, 0.4, 0.6, 0.75, 0.85, 0.9, 0.93,
    0.95, 0.97, 0.98, 0.99, 0.995,
)


def _fit_burst_weight(stats: TraceStatistics) -> float:
    """Choose ``burst_weight`` so the gap mixture's realised std is as
    close as possible to the trace's inter-arrival std.

    Gap draws come from the *real* generator (cap and chunk-rescaling
    included), so the chosen weight is calibrated against what
    generation will actually produce.
    """
    target = stats.interarrival_std_s
    if target <= stats.interarrival_mean_s:
        # Sub-exponential spread: the mixture floor is a single
        # exponential (std == mean); degenerate the burst component.
        return 0.0

    def realised_std(weight: float) -> float:
        spec = WorkloadSpec(
            name="gap-probe",
            duration_s=stats.interarrival_mean_s * 8192,
            distinct_kbytes=64,
            read_fraction=0.5,
            block_size=KB,
            mean_read_blocks=1.0,
            mean_write_blocks=1.0,
            interarrival_mean_s=stats.interarrival_mean_s,
            interarrival_max_s=max(
                stats.interarrival_max_s, stats.interarrival_mean_s
            ),
            burst_weight=weight,
            burst_mean_scale=_BURST_MEAN_SCALE,
        )
        rng = random.Random(_PROBE_SEED)
        _file_table(spec, rng)  # the draws a trace makes before its gaps
        gaps = _gap_chunk(spec, rng) + _gap_chunk(spec, rng)  # 8192 gaps
        mean = sum(gaps) / len(gaps)
        return math.sqrt(sum((gap - mean) ** 2 for gap in gaps) / len(gaps))

    return min(
        _BURST_WEIGHT_GRID,
        key=lambda weight: abs(realised_std(weight) - target),
    )


def _calibrate(
    spec: WorkloadSpec, trace: Trace, stats: TraceStatistics
) -> WorkloadSpec:
    """Probe-generate-rescale loop for coverage and realised sizes.

    Realised distinct Kbytes depends on skew and length, and realised
    mean transfer sizes sag below target when draws are clipped to file
    boundaries; both are corrected by generating short probes and
    rescaling the knobs.  Probes compare against the source *truncated
    to the probe length* so coverage is compared like for like.
    """
    probe_ops = min(stats.n_records, _PROBE_OPS)
    if probe_ops < 2:
        return spec
    truncated = Trace(
        trace.name,
        list(trace.records[:probe_ops]),
        block_size=trace.block_size,
    )
    probe_target = compute_statistics(truncated)
    for _ in range(_CALIBRATION_ROUNDS):
        probe = spec.generate(seed=_PROBE_SEED, n_ops=probe_ops)
        realised = compute_statistics(probe)
        changes: dict[str, Any] = {}
        if realised.distinct_kbytes > 0 and probe_target.distinct_kbytes > 0:
            ratio = probe_target.distinct_kbytes / realised.distinct_kbytes
            if abs(ratio - 1.0) > 0.05:
                factor = min(5.0, max(0.2, ratio))
                changes["distinct_kbytes"] = max(
                    1, int(round(spec.distinct_kbytes * factor))
                )
        for field, realised_mean, target_mean in (
            ("mean_read_blocks", realised.mean_read_blocks,
             stats.mean_read_blocks),
            ("mean_write_blocks", realised.mean_write_blocks,
             stats.mean_write_blocks),
        ):
            if realised_mean > 0 and target_mean > 0:
                ratio = target_mean / realised_mean
                if abs(ratio - 1.0) > 0.05:
                    factor = min(3.0, max(0.5, ratio))
                    changes[field] = max(
                        1.0, getattr(spec, field) * factor
                    )
        if not changes:
            break
        spec = _replace(spec, **changes)
    return _calibrate_interarrival(spec, stats)


def _calibrate_interarrival(
    spec: WorkloadSpec, stats: TraceStatistics
) -> WorkloadSpec:
    """Correct the systematic gap between spec and realised *per-record*
    inter-arrival means.

    Two generator mechanics push the realised mean off spec: gap chunks
    are rescaled to the spec mean and then capped at the maximum (so
    real mass at the cap sags the mean — hp's 30-minute ceiling over an
    11 s mean), and skipped iterations (a read of a deleted file, a
    re-delete) consume a gap without emitting a record (inflating the
    per-record mean for deleting workloads).  Both are systematic, so
    they are measured on generated probes — but with bursty mixtures
    the mean is dominated by rare long gaps, so probes are long and
    averaged over several seeds regardless of the source's length;
    a single short probe would chase sampling noise instead.  Duration
    follows the mean so the spec's nominal operation count stays the
    source's record count.
    """
    target = stats.interarrival_mean_s
    if target <= 0:
        return spec
    probe_ops = 8192
    for _ in range(3):
        realised_total = 0.0
        for offset in range(4):
            probe = spec.generate(seed=_PROBE_SEED + offset, n_ops=probe_ops)
            realised_total += compute_statistics(probe).interarrival_mean_s
        realised = realised_total / 4
        if realised <= 0:
            break
        ratio = target / realised
        if abs(ratio - 1.0) <= 0.03:
            break
        factor = min(3.0, max(0.5, ratio))
        mean = spec.interarrival_mean_s * factor
        spec = _replace(
            spec,
            interarrival_mean_s=mean,
            duration_s=mean * stats.n_records,
        )
    return spec


__all__ = [
    "FittedWorkload",
    "MODEL_FORMAT",
    "MODEL_VERSION",
    "fit_trace",
]
