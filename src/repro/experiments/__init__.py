"""Experiment harness: paper figures, CP trace, ablations."""

from repro.experiments.ablations import (
    cp_period_sweep,
    loss_sweep,
    neighborhood_coordination,
    scale_sweep,
    scheduler_variants,
    slots_sweep,
    spof_comparison,
    st_vs_at,
)
from repro.experiments.cp_trace import CpTraceResult, trace_cp
from repro.experiments.figures import (
    FigureData,
    fig2a,
    fig2b,
    fig2c,
    headline_numbers,
)
from repro.experiments.runner import (
    ParallelRunner,
    PolicyOutcome,
    RunSpec,
    WorkerFailure,
    run_registry,
)
from repro.experiments import registry

__all__ = [
    "CpTraceResult",
    "FigureData",
    "ParallelRunner",
    "PolicyOutcome",
    "RunSpec",
    "WorkerFailure",
    "cp_period_sweep",
    "fig2a",
    "fig2b",
    "fig2c",
    "headline_numbers",
    "loss_sweep",
    "neighborhood_coordination",
    "scale_sweep",
    "scheduler_variants",
    "slots_sweep",
    "registry",
    "run_registry",
    "spof_comparison",
    "st_vs_at",
    "trace_cp",
]
