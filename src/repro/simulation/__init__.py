"""Operational semantics of SIGNAL: compilation, scheduling and simulation."""

from .codegen import StepKernels
from .compiler import (
    STEP_COMPILE_MODES,
    CompiledProcess,
    ConsistencyError,
    SimulationError,
    UnresolvedError,
)
from .scheduler import (
    DependencyGraph,
    ScheduleReport,
    analyse,
    build_dependency_graph,
    evaluation_order,
    find_cycles,
    instantaneous_reads,
    schedule,
)
from .simulator import Simulator, behaviors_from_scenarios, simulate, simulate_columns
from .status import PRESENT, Status, UNKNOWN_VALUE
from .traces import Trace

__all__ = [
    "CompiledProcess",
    "ConsistencyError",
    "DependencyGraph",
    "PRESENT",
    "STEP_COMPILE_MODES",
    "ScheduleReport",
    "SimulationError",
    "Simulator",
    "Status",
    "StepKernels",
    "Trace",
    "UNKNOWN_VALUE",
    "UnresolvedError",
    "analyse",
    "behaviors_from_scenarios",
    "build_dependency_graph",
    "evaluation_order",
    "find_cycles",
    "instantaneous_reads",
    "schedule",
    "simulate",
    "simulate_columns",
]
