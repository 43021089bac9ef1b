"""Deterministic crash-point sweep harness.

Instruments the durability-relevant boundaries of the runtime and
Figure 2's message-pipeline points with named crash *sites*
(:mod:`repro.faults.plane`, whose :func:`arm` crashes a process at a
pipeline point by hand), enumerates the crash *points* a workload
actually passes through on a fault-free golden run
(:mod:`repro.faults.plan`), and re-executes the workload once per point,
asserting recovery restores byte-identical state with exactly-once
semantics (:mod:`repro.faults.sweep`).

Only :mod:`.plane` is imported eagerly: the instrumented runtime modules
(log, core, checkpoint, recovery, queues) import it, so pulling in the
workloads here would be an import cycle.  Import ``repro.faults.plan``,
``.workloads`` and ``.sweep`` directly where needed.
"""

from .plane import (
    PIPELINE_POINTS,
    CrashSpec,
    FaultPlane,
    active_plane,
    arm,
    install_plane,
    installed,
    uninstall_plane,
)

__all__ = [
    "PIPELINE_POINTS",
    "CrashSpec",
    "FaultPlane",
    "active_plane",
    "arm",
    "install_plane",
    "installed",
    "uninstall_plane",
]
