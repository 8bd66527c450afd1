"""Trace machinery: records, containers, preprocessing, statistics, I/O,
and the synthetic workload generators that stand in for the paper's
``mac``/``dos``/``hp``/``synth`` traces (see DESIGN.md section 1 for the
substitution rationale).
"""

from repro.traces.record import BlockOp, Operation, TraceRecord
from repro.traces.trace import Trace
from repro.traces.filemap import ExtentMapper, FileMapper
from repro.traces.stats import TraceStatistics, compute_statistics
from repro.traces.io import load_trace, save_trace
from repro.contract import check_conformance
from repro.traces.fitting import FittedWorkload, fit_trace
from repro.traces.ingest import CsvSpec, detect_format, import_trace
from repro.traces.synthetic import SyntheticWorkload
from repro.traces.workloads import (
    DosWorkload,
    HpWorkload,
    MacWorkload,
    WorkloadSpec,
    workload_by_name,
)

__all__ = [
    "BlockOp",
    "CsvSpec",
    "DosWorkload",
    "ExtentMapper",
    "FileMapper",
    "FittedWorkload",
    "HpWorkload",
    "MacWorkload",
    "Operation",
    "SyntheticWorkload",
    "Trace",
    "TraceRecord",
    "TraceStatistics",
    "WorkloadSpec",
    "check_conformance",
    "compute_statistics",
    "fit_trace",
    "import_trace",
    "detect_format",
    "load_trace",
    "save_trace",
    "workload_by_name",
]
