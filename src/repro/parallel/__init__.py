"""Process-parallel sweep harness with deterministic seeding."""

from .executor import contiguous_shards, cpu_workers, fork_available, parallel_map
from .faults import FAULT_KINDS, Fault, FaultPlan
from .runtime import RuntimeReport, ShardContext, ShardOutcome, run_shards
from .sweep import (
    SweepSpec,
    SweepTask,
    aggregate_max,
    aggregate_mean,
    clear_distance_caches,
    run_sweep,
    shared_distance_cache,
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
    "clear_distance_caches",
    "contiguous_shards",
    "cpu_workers",
    "fork_available",
    "parallel_map",
    "run_shards",
    "run_sweep",
    "shared_distance_cache",
]
