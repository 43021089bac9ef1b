"""The paper's evaluation, experiment by experiment.

One function per table/figure of Section 5.  Each returns an
:class:`ExperimentTable` pairing measured values with the paper's
published numbers; ``benchmarks/`` wraps these for pytest-benchmark and
asserts the shape criteria recorded in DESIGN.md.
"""

from __future__ import annotations

from ..apps.bookstore import BookBuyer, OptimizationLevel, deploy_bookstore
from ..core import (
    CheckpointConfig,
    PersistentComponent,
    PhoenixRuntime,
    RuntimeConfig,
    persistent,
)
from ..sim import RotationalDisk, SimClock
from .harness import PingServer, run_pair
from .reporting import Cell, ExperimentTable


# ----------------------------------------------------------------------
# Table 4 — log optimizations for persistent components
# ----------------------------------------------------------------------
def table4(calls: int = 300) -> ExperimentTable:
    table = ExperimentTable(
        key="table4",
        title="Table 4: Log Optimizations for Persistent Components (ms)",
        columns=["local", "remote"],
        precision=3,
    )
    cases = [
        ("External -> MarshalByRefObject",
         ("external", "marshal_by_ref", True), 0.593, 0.798),
        ("External -> ContextBoundObject",
         ("external", "context_bound", True), 0.598, 0.804),
        ("ContextBound -> ContextBound",
         ("context_bound", "context_bound", True), 0.585, 0.808),
        ("ContextBound -> ContextBound (interception)",
         ("context_bound", "context_bound_intercepted", True), 0.674, 0.870),
        ("External -> Persistent (baseline)",
         ("external", "persistent", False), 17.0, 17.3),
        ("External -> Persistent (optimized)",
         ("external", "persistent", True), 17.1, 17.0),
        ("Persistent -> Persistent (baseline)",
         ("persistent", "persistent", False), 34.7, 28.4),
        ("Persistent -> Persistent (optimized)",
         ("persistent", "persistent", True), 17.9, 10.8),
    ]
    for label, (client, server, optimized), paper_local, paper_remote in cases:
        local = run_pair(
            client, server, remote=False, optimized=optimized, calls=calls
        ).per_call_ms
        remote = run_pair(
            client, server, remote=True, optimized=optimized, calls=calls
        ).per_call_ms
        table.add_row(
            label, Cell(local, paper_local), Cell(remote, paper_remote)
        )
    table.notes.append(
        "local optimized P->P locks into a favourable disk phase in the "
        "deterministic simulation (writes land mid-rotation, as in the "
        "paper's remote case) where the paper's hardware happened to "
        "just-miss; the baseline/optimized force counts (4 vs 2) match."
    )
    return table


# ----------------------------------------------------------------------
# Table 5 — new component types and read-only methods
# ----------------------------------------------------------------------
def table5(calls: int = 300) -> ExperimentTable:
    table = ExperimentTable(
        key="table5",
        title="Table 5: New Components and Read-only Methods (ms)",
        columns=["local", "remote"],
        precision=5,
    )
    cases = [
        ("External -> Read-only", ("external", "read_only"), 0.689, 0.887),
        ("External -> Functional", ("external", "functional"), 0.672, 0.875),
        ("Persistent -> Read-only", ("persistent", "read_only"), 1.351, 1.495),
        ("Persistent -> Functional",
         ("persistent", "functional"), 1.194, 1.414),
        ("Persistent -> Subordinate",
         ("persistent", "subordinate"), 3.44e-5, None),
        ("Persistent -> Persistent (read-only methods)",
         ("persistent", "persistent_ro_method"), 1.407, 1.547),
        ("Read-only -> Persistent", ("read_only", "persistent"), 1.218, 1.404),
    ]
    for label, (client, server), paper_local, paper_remote in cases:
        local = run_pair(client, server, calls=calls).per_call_ms
        cells = [Cell(local, paper_local)]
        if paper_remote is None:
            cells.append(Cell(float("nan"), None))
        else:
            remote = run_pair(
                client, server, remote=True, calls=calls
            ).per_call_ms
            cells.append(Cell(remote, paper_remote))
        table.add_row(label, *cells)
    table.notes.append(
        "subordinate calls never cross a context, so there is no remote "
        "column for them (as in the paper)."
    )
    return table


# ----------------------------------------------------------------------
# Figure 9 — unbuffered disk write staircase
# ----------------------------------------------------------------------
def figure9(
    delays_ms: tuple = tuple(range(0, 37, 2)),
    writes_per_point: int = 50,
    write_bytes: int = 1024,
) -> ExperimentTable:
    """Per-iteration elapsed time of a 1 KB unbuffered write loop with an
    inserted delay after each write."""
    table = ExperimentTable(
        key="figure9",
        title="Figure 9: Unbuffered disk write performance "
        "(ms/iteration vs inserted delay)",
        columns=["ms_per_iteration"],
        precision=2,
    )
    # The paper's curve: ~8.5 until one rotation, then steps of ~8.33.
    rotation = 8.333
    for delay in delays_ms:
        clock = SimClock()
        disk = RotationalDisk(clock)
        file = disk.create_file("figure9.log")
        disk.write(file, write_bytes)  # land on the sequential pattern
        for _ in range(10):  # settle
            clock.advance(float(delay))
            disk.write(file, write_bytes)
        started = clock.now
        for _ in range(writes_per_point):
            clock.advance(float(delay))
            disk.write(file, write_bytes)
        per_iteration = (clock.now - started) / writes_per_point
        import math

        paper_value = (math.floor(delay / rotation) + 1) * rotation + 0.17
        table.add_row(f"delay={delay}ms", Cell(per_iteration, round(paper_value, 2)))
    table.notes.append(
        "'paper' values are the staircase read off Figure 9: "
        "(floor(delay/rotation)+1) * 8.33ms + transfer."
    )
    return table


# ----------------------------------------------------------------------
# Table 6 — checkpointing overhead
# ----------------------------------------------------------------------
def table6(calls: int = 300) -> ExperimentTable:
    table = ExperimentTable(
        key="table6",
        title="Table 6: Checkpointing Performance (ms), remote P->P",
        columns=["write cache disabled", "write cache enabled"],
    )
    plain_off = run_pair(
        "persistent", "persistent", remote=True, calls=calls
    ).per_call_ms
    save_off = run_pair(
        "persistent", "persistent", remote=True, calls=calls,
        save_state_each_call=True,
    ).per_call_ms
    plain_on = run_pair(
        "persistent", "persistent", remote=True, calls=calls,
        write_cache=True,
    ).per_call_ms
    save_on = run_pair(
        "persistent", "persistent", remote=True, calls=calls,
        write_cache=True, save_state_each_call=True,
    ).per_call_ms
    table.add_row(
        "Persistent -> Persistent",
        Cell(plain_off, 10.8), Cell(plain_on, 2.62),
    )
    table.add_row(
        "Persistent -> Persistent (save state on call)",
        Cell(save_off, 11.8), Cell(save_on, 3.82),
    )
    return table


# ----------------------------------------------------------------------
# Table 7 — recovery performance
# ----------------------------------------------------------------------
def _recovery_elapsed(
    calls_before: int,
    calls_after: int,
    save_state: bool,
) -> float:
    """Kill a server after a call history; return recovery elapsed ms."""
    runtime = PhoenixRuntime(config=RuntimeConfig.optimized())
    runtime.external_client_machine = "alpha"
    process = runtime.spawn_process("recovery-bench", machine="beta")
    server = process.create_component(PingServer)
    for i in range(calls_before):
        server.ping(i)
    if save_state:
        context = process.find_context(1)
        process.save_context_state(context)
        # State records are not forced (Section 4.3) — a later send
        # message makes them stable.  The crash below must find the
        # record on disk, so flush it the way continued traffic would.
        process.log_force()
    for i in range(calls_after):
        server.ping(i)
    runtime.crash_process(process)
    started = runtime.now
    runtime.ensure_recovered(process)
    return runtime.now - started


def recovery_empty_log() -> float:
    """Recovery of a process that never hosted a component."""
    runtime = PhoenixRuntime()
    process = runtime.spawn_process("empty", machine="beta")
    runtime.crash_process(process)
    started = runtime.now
    runtime.ensure_recovered(process)
    return runtime.now - started


def table7(
    call_counts: tuple = (0, 1000, 2000, 3000, 4000, 5000),
) -> ExperimentTable:
    table = ExperimentTable(
        key="table7",
        title="Table 7: Recovery Performance (ms) vs replayed calls",
        columns=[str(n) for n in call_counts],
        precision=0,
    )
    paper = {
        "Empty log": {0: 492},
        "From creation": dict(
            zip((0, 1000, 2000, 3000, 4000, 5000),
                (575, 728, 868, 1007, 1100, 1199))
        ),
        "From state": dict(
            zip((0, 1000, 2000, 3000, 4000, 5000),
                (638, 794, 875, 1162, 1252, 1507))
        ),
    }
    empty = recovery_empty_log()
    table.add_row(
        "Empty log",
        *[
            Cell(empty, paper["Empty log"].get(n)) if n == 0
            else Cell(float("nan"))
            for n in call_counts
        ],
    )
    for label, save_state in (("From creation", False), ("From state", True)):
        cells = []
        for n in call_counts:
            elapsed = _recovery_elapsed(
                calls_before=100 if save_state else 0,
                calls_after=n,
                save_state=save_state,
            )
            cells.append(Cell(elapsed, paper[label].get(n)))
        table.add_row(label, *cells)
    table.notes.append(
        "replay cost is linear at ~0.15 ms/call (the paper's stated "
        "constant); the paper's own table has up to 12% deviation."
    )
    return table


# ----------------------------------------------------------------------
# Table 8 — the online bookstore
# ----------------------------------------------------------------------
def table8(iterations: int = 10) -> ExperimentTable:
    table = ExperimentTable(
        key="table8",
        title="Table 8: Online Bookstore (per operation set)",
        columns=["elapsed ms", "log forces"],
        precision=1,
    )
    paper = {
        OptimizationLevel.BASELINE: (589.0, 64),
        OptimizationLevel.OPTIMIZED_PERSISTENT: (382.0, 46),
        OptimizationLevel.SPECIALIZED: (296.0, 34),
    }
    for level in OptimizationLevel:
        app = deploy_bookstore(level=level)
        buyer = BookBuyer(app)
        report = buyer.run_session(iterations=iterations)
        paper_ms, paper_forces = paper[level]
        table.add_row(
            level.value,
            Cell(report.elapsed_ms / iterations, paper_ms),
            Cell(report.forces / iterations, paper_forces),
        )
    table.notes.append(
        "per-iteration averages of the Section 5.5 operation mix; our "
        "scripted BookBuyer performs fewer stateful external calls per "
        "iteration than the paper's menu-driven client, so the "
        "specialized level saves proportionally more."
    )
    return table


# ----------------------------------------------------------------------
# Section 5.5.2 — multi-call optimization ablation (extension)
# ----------------------------------------------------------------------
@persistent
class FanoutClient(PersistentComponent):
    """A PriceGrabber-shaped persistent component: one incoming call
    fans out to k persistent servers."""

    def __init__(self, servers: list):
        self.servers = list(servers)
        self.rounds = 0

    def grab(self, value):
        self.rounds += 1
        return [server.ping(value) for server in self.servers]


def multicall_ablation(
    server_counts: tuple = (1, 2, 4, 8), calls: int = 20
) -> ExperimentTable:
    """Forces per fan-out call, with and without the Section 3.5
    multi-call optimization (paper: 'the PriceGrabber forces the log
    only once, regardless of the number of Bookstores it queries')."""
    table = ExperimentTable(
        key="multicall",
        title="Section 3.5/5.5.2: multi-call optimization "
        "(client log forces per fan-out call)",
        columns=["without multi-call", "with multi-call"],
        precision=1,
    )
    for count in server_counts:
        forces = {}
        for enabled in (False, True):
            config = RuntimeConfig.optimized(multicall_optimization=enabled)
            runtime = PhoenixRuntime(config=config)
            runtime.external_client_machine = "alpha"
            client_process = runtime.spawn_process("grabber", machine="beta")
            # one process per server: the skip is per server *process*
            # (a repeat call into the same process evicts the earlier
            # call's last-call entry and must force again)
            servers = [
                runtime.spawn_process(
                    f"store{i}", machine="beta"
                ).create_component(PingServer)
                for i in range(count)
            ]
            client = client_process.create_component(
                FanoutClient, args=(servers,)
            )
            client.grab(0)  # warm the type table
            before = client_process.log.stats.forces_performed
            for i in range(calls):
                client.grab(i)
            forces[enabled] = (
                client_process.log.stats.forces_performed - before
            ) / calls
        table.add_row(
            f"{count} servers",
            Cell(forces[False], count + 1),
            Cell(forces[True], 2),
        )
    table.notes.append(
        "'paper' columns show the analytic expectation: k outgoing "
        "forces + 1 reply force without the optimization; first-call "
        "force + reply force with it."
    )
    return table


ALL_EXPERIMENTS = {
    "table4": table4,
    "table5": table5,
    "figure9": figure9,
    "table6": table6,
    "table7": table7,
    "table8": table8,
    "multicall": multicall_ablation,
}
