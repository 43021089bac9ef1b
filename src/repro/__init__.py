"""repro — a reproduction of Barga, Chen & Lomet,
"Improving Logging and Recovery Performance in Phoenix/App" (ICDE 2004).

Phoenix/App makes stateful application components persistent across
crashes by transparently intercepting and logging their messages, and
recovers them by replay.  This package implements the whole system on a
deterministic simulation substrate:

* :mod:`repro.sim` — simulated clock, rotational disk (the paper's
  Figure 9 mechanism), network and machines;
* :mod:`repro.log` — a real binary log with CRC framing;
* :mod:`repro.core` — components, contexts, interceptors, the logging
  algorithms (baseline Algorithm 1 and the paper's Algorithms 2-5 plus
  the Section 3.5 multi-call optimization), processes and the runtime;
* :mod:`repro.checkpoint` — context state records and process
  checkpoints (Section 4);
* :mod:`repro.recovery` — the per-machine recovery service and
  recovery;
* :mod:`repro.faults` — the fault plane: named crash sites, crash
  injection and the crash-point sweep;
* :mod:`repro.apps.bookstore` — the paper's online bookstore
  application (Section 5.5);
* :mod:`repro.bench` — the experiment harness regenerating every table
  and figure of the evaluation.

Quickstart::

    from repro import PhoenixRuntime, PersistentComponent, persistent

    @persistent
    class Counter(PersistentComponent):
        def __init__(self):
            self.count = 0
        def increment(self, by=1):
            self.count += by
            return self.count

    runtime = PhoenixRuntime()
    process = runtime.spawn_process("svc", machine="alpha")
    counter = process.create_component(Counter)
    counter.increment(5)            # logged, exactly-once
    runtime.crash_process(process)  # kill it
    assert counter.increment(1) == 6  # transparently recovered
"""

from .core import (
    AppProcess,
    CheckpointConfig,
    ComponentProxy,
    ComponentType,
    Context,
    GlobalCallId,
    PersistentComponent,
    PhoenixRuntime,
    ProcessState,
    RuntimeConfig,
    SubordinateHandle,
    functional,
    persistent,
    read_only,
    read_only_method,
    subordinate,
)
from .errors import (
    ApplicationError,
    ComponentUnavailableError,
    ConfigurationError,
    DeploymentError,
    InvariantViolationError,
    LogCorruptionError,
    PhoenixError,
    RecoveryError,
    RetriesExhaustedError,
    SerializationError,
    UnknownComponentClassError,
)
from .sim import Cluster, CostModel, DiskGeometry

__version__ = "0.1.0"

__all__ = [
    "PhoenixRuntime",
    "AppProcess",
    "ProcessState",
    "RuntimeConfig",
    "CheckpointConfig",
    "PersistentComponent",
    "SubordinateHandle",
    "ComponentProxy",
    "ComponentType",
    "Context",
    "GlobalCallId",
    "persistent",
    "subordinate",
    "functional",
    "read_only",
    "read_only_method",
    "Cluster",
    "CostModel",
    "DiskGeometry",
    "PhoenixError",
    "ApplicationError",
    "ComponentUnavailableError",
    "ConfigurationError",
    "DeploymentError",
    "InvariantViolationError",
    "LogCorruptionError",
    "RecoveryError",
    "RetriesExhaustedError",
    "SerializationError",
    "UnknownComponentClassError",
    "__version__",
]
