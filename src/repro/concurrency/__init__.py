"""Deterministic concurrent-session scheduling.

See :mod:`repro.concurrency.scheduler` for the scheduling model and
:mod:`repro.concurrency.bench` for the concurrent-throughput experiment
(``benchmarks/bench_concurrent_throughput.py`` drives it).  Running the
package (``python -m repro.concurrency``) executes the same-seed
determinism check that ``make concurrency`` wires into CI.
"""

from .policies import (
    ControlledPolicy,
    ReplayPolicy,
    ScheduleDivergenceError,
    SchedulePolicy,
    ScheduleStep,
    SeededRandomPolicy,
)
from .scheduler import DeterministicScheduler, SchedulerAbort
from .tags import YIELD_TAGS, covered_site_families, validate_tag

__all__ = [
    "ControlledPolicy",
    "DeterministicScheduler",
    "ReplayPolicy",
    "ScheduleDivergenceError",
    "SchedulePolicy",
    "ScheduleStep",
    "SchedulerAbort",
    "SeededRandomPolicy",
    "YIELD_TAGS",
    "covered_site_families",
    "validate_tag",
]
