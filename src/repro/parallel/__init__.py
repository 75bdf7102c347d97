"""Process-parallel sweep harness with deterministic seeding."""

from .executor import contiguous_shards, cpu_workers, fork_available, parallel_map
from .faults import FAULT_KINDS, Fault, FaultPlan
from .runtime import RuntimeReport, ShardContext, ShardOutcome, run_shards
from .sweep import (
    SweepSpec,
    SweepTask,
    aggregate_max,
    aggregate_mean,
    run_sweep,
)

__all__ = [
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "RuntimeReport",
    "ShardContext",
    "ShardOutcome",
    "SweepSpec",
    "SweepTask",
    "aggregate_max",
    "aggregate_mean",
    "contiguous_shards",
    "cpu_workers",
    "fork_available",
    "parallel_map",
    "run_shards",
    "run_sweep",
]
