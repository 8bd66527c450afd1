"""The paper's primary contribution: a trace-driven simulator of mobile
storage hierarchies (DRAM buffer cache -> optional SRAM write buffer ->
disk / flash disk / flash card) that reports energy consumption and
read/write response-time statistics.
"""

from repro.core.config import SimulationConfig
from repro.core.hooks import HookBus
from repro.core.metrics import MetricsCollector, ResponseAccumulator, ResponseStats
from repro.core.request import Request, RequestKind, Response
from repro.core.results import SimulationResult
from repro.core.hierarchy import build_hierarchy
from repro.core.layers import (
    DeviceLayer,
    DramLayer,
    LayerStack,
    SramLayer,
    StorageLayer,
)
from repro.core.simulator import Simulator, simulate

__all__ = [
    "DeviceLayer",
    "DramLayer",
    "HookBus",
    "LayerStack",
    "MetricsCollector",
    "Request",
    "RequestKind",
    "Response",
    "ResponseAccumulator",
    "ResponseStats",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "SramLayer",
    "StorageLayer",
    "build_hierarchy",
    "simulate",
]
