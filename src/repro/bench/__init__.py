"""Benchmark harness regenerating the paper's evaluation section."""

from .ablations import (
    attachment_omission_ablation,
    force_combining_ablation,
    log_gc_ablation,
    short_record_ablation,
    static_type_seeding_ablation,
)
from .checkpoint_sweep import checkpoint_interval_sweep
from .comparison import queue_comparison

from .experiments import (
    ALL_EXPERIMENTS,
    figure9,
    multicall_ablation,
    recovery_empty_log,
    table4,
    table5,
    table6,
    table7,
    table8,
)
from .harness import (
    CLIENT_KINDS,
    SERVER_KINDS,
    MicrobenchResult,
    run_pair,
)
from .reporting import Cell, ExperimentTable

__all__ = [
    "ALL_EXPERIMENTS",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "figure9",
    "multicall_ablation",
    "queue_comparison",
    "checkpoint_interval_sweep",
    "attachment_omission_ablation",
    "short_record_ablation",
    "force_combining_ablation",
    "log_gc_ablation",
    "static_type_seeding_ablation",
    "recovery_empty_log",
    "run_pair",
    "MicrobenchResult",
    "CLIENT_KINDS",
    "SERVER_KINDS",
    "Cell",
    "ExperimentTable",
]
