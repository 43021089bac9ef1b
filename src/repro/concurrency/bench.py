"""Concurrent-throughput experiment: group commit and pipelined commit
vs session count.

The setup isolates the effect Section 5.2.2 predicts for a shared log:
N external client sessions each drive their own persistent front-tier
component, all hosted in ONE server process, and each front component
calls its session's back-tier ledger in a second process — so every
session's traffic lands on two shared logs, and every call crosses the
two kinds of committing send:

* Algorithm 3 at the front (forced long message 1, forced short
  message 2): the force immediately follows the session's own append,
  so its causal prefix always includes the fresh record;
* Algorithm 2 at the persistent→persistent hop (the outgoing call from
  the front tier and the back tier's reply-send): the force appends
  nothing of its own, so under ``pipelined_commit`` it is *gated* —
  skipped outright — whenever the session's causal prefix is already
  stable, even while other sessions' unforced appends sit above it.

Without group commit each call performs the same number of stable
writes regardless of N; with group commit, forces arriving within one
disk-rotation window ride a single shared write, so writes *per call*
fall as sessions are added; with pipelined commit on top, the
Algorithm-2 sends stop paying for other sessions' bytes entirely
(TRC107's slack), so forces per call fall further and calls/second
rise.

``benchmarks/bench_concurrent_throughput.py`` runs this experiment and
asserts all three shapes (flat without; decreasing with group commit;
pipelined at or below group commit everywhere and strictly better at
large N).
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import dataclass

from ..analysis import vector_clock
from ..bench.reporting import Cell, ExperimentTable
from ..core import PersistentComponent, PhoenixRuntime, persistent
from ..core.config import RuntimeConfig
from .scheduler import DeterministicScheduler

#: Scheduler seed for every bench run (same seed -> same interleaving).
BENCH_SEED = 7


@persistent
class _Ledger(PersistentComponent):
    """Back-tier persistent server: every call mutates state, and its
    persistent caller makes the reply-send an Algorithm-2 committing
    send (force everything before the reply, no record of its own)."""

    def __init__(self):
        self.count = 0

    def record(self) -> int:
        self.count += 1
        return self.count


@persistent
class _Desk(PersistentComponent):
    """Front-tier persistent server: mutates its own state, then calls
    its session's back-tier ledger.  The external caller gets
    Algorithm 3 (forced long message 1, forced short message 2); the
    outgoing call to the ledger is an Algorithm-2 committing send —
    the site pipelined commit gates causally."""

    def __init__(self, ledger):
        self.ledger = ledger
        self.count = 0

    def record(self) -> int:
        self.count += 1
        return self.ledger.record()


# Sharded leg: stream routing is by component class, so splitting the
# sessions across two shards per process needs two (otherwise
# identical) classes per tier.  Even sessions land on the A shard, odd
# on B; the unsharded columns keep using the base classes so their
# byte-pinned results are untouched.
@persistent
class _LedgerA(_Ledger):
    pass


@persistent
class _LedgerB(_Ledger):
    pass


@persistent
class _DeskA(_Desk):
    pass


@persistent
class _DeskB(_Desk):
    pass


#: Shard split for the sharded leg, accepted verbatim by
#: :func:`repro.log.sharding.plan_shards`.
SHARD_SPLIT = (
    {"id": "front-a", "processes": ["gc-front"], "components": ["_DeskA"]},
    {"id": "front-b", "processes": ["gc-front"], "components": ["_DeskB"]},
    {"id": "back-a", "processes": ["gc-back"], "components": ["_LedgerA"]},
    {"id": "back-b", "processes": ["gc-back"], "components": ["_LedgerB"]},
)


@dataclass(frozen=True)
class _Run:
    """Counters of one scheduler run."""

    sessions: int
    calls: int  # total calls across sessions
    forces_performed: int
    group_commit_batches: int
    group_commit_riders: int
    pipelined_gated: int
    pipelined_write_skips: int
    elapsed_ms: float
    #: Byte fingerprint of the durable artifacts (stable log, protocol
    #: trace, final clock) — the pipelined determinism gate compares
    #: two same-seed runs on it.
    fingerprint: tuple[tuple[str, bytes], ...]
    #: Conformance-oracle violations (TRC101–TRC108) for this run.
    violations: tuple[str, ...]

    @property
    def forces_per_call(self) -> float:
        return self.forces_performed / self.calls

    @property
    def calls_per_second(self) -> float:
        return self.calls / (self.elapsed_ms / 1000.0)


def _deploy(
    sessions: int,
    group_commit: bool,
    calls_per_session: int,
    pipelined: bool = False,
    sharded: bool = False,
):
    """The two-tier deployment and its session programs: ``(runtime,
    (front, back), session functions)``."""
    config = RuntimeConfig.optimized(
        group_commit=group_commit,
        pipelined_commit=pipelined,
        sharded_logging=sharded,
    )
    runtime = PhoenixRuntime(config=config)
    if sharded:
        runtime.install_log_plan(SHARD_SPLIT)
    runtime.external_client_machine = "alpha"
    front = runtime.spawn_process("gc-front", machine="beta")
    back = runtime.spawn_process("gc-back", machine="beta")
    # One component pair per session: admission is per context, so
    # distinct components let sessions overlap inside each process (two
    # shared logs) instead of serializing end to end at the context
    # boundary.
    if sharded:
        pairs = ((_DeskA, _LedgerA), (_DeskB, _LedgerB))
    else:
        pairs = ((_Desk, _Ledger),)
    desks = [
        front.create_component(
            pairs[i % len(pairs)][0],
            args=(back.create_component(pairs[i % len(pairs)][1]),),
        )
        for i in range(sessions)
    ]

    def make_session(index: int):
        desk = desks[index]

        def session() -> int:
            last = 0
            for __ in range(calls_per_session):
                last = desk.record()
            return last

        return session

    return runtime, (front, back), [make_session(i) for i in range(sessions)]


def clock_bytes_per_traced_event(
    sessions: int = 64, calls_per_session: int = 6
) -> float:
    """What vector clocks leave allocated per traced logging decision:
    bytes ``tracemalloc`` attributes to ``analysis/vector_clock.py``
    (each event's frozen snapshot, plus the live clocks' ints) once a
    pipelined run has finished, over the run's trace length."""
    runtime, processes, session_fns = _deploy(
        sessions, group_commit=True, calls_per_session=calls_per_session,
        pipelined=True,
    )
    scheduler = DeterministicScheduler(runtime, seed=BENCH_SEED)
    tracemalloc.start()
    try:
        scheduler.run(session_fns)
        gc.collect()
        retained = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, vector_clock.__file__)]
        )
    finally:
        tracemalloc.stop()
    events = sum(
        len(stream.trace.entries) for p in processes for stream in p.streams
    )
    return sum(trace.size for trace in retained.traces) / events


def _run(
    sessions: int,
    group_commit: bool,
    calls_per_session: int,
    pipelined: bool = False,
    seed: int = BENCH_SEED,
    sharded: bool = False,
) -> _Run:
    runtime, processes, session_fns = _deploy(
        sessions, group_commit, calls_per_session, pipelined, sharded
    )
    # All streams of both processes (flag-off: exactly the two legacy
    # logs) — sharded runs force the shard streams, so the stats delta
    # must sum across them.
    logs = [stream.log for p in processes for stream in p.streams]
    stats_before = [log.stats.snapshot() for log in logs]
    started = runtime.clock.now
    scheduler = DeterministicScheduler(runtime, seed=seed)
    scheduler.run(session_fns)
    stats = [log.stats for log in logs]
    from ..analysis.trace_check import check_runtime

    fingerprint = tuple(
        (f"{kind}:{p.name}{suffix}", blob)
        for p in processes
        for index, stream in enumerate(p.streams)
        for suffix in ("" if index == 0 else f"@{stream.shard_id}",)
        for kind, blob in (
            ("log", stream.log.stable_bytes()),
            ("trace", repr(stream.trace.entries).encode()),
        )
    ) + (("clock", repr(runtime.clock.now).encode()),)
    violations = tuple(
        f"{process_name}: {violation.render()}"
        for process_name, violation in check_runtime(runtime)
    )

    def delta(field: str) -> int:
        return sum(
            getattr(after, field) - getattr(before, field)
            for after, before in zip(stats, stats_before)
        )

    return _Run(
        sessions=sessions,
        calls=sessions * calls_per_session,
        forces_performed=delta("forces_performed"),
        group_commit_batches=delta("group_commit_batches"),
        group_commit_riders=delta("group_commit_riders"),
        pipelined_gated=delta("pipelined_gated"),
        pipelined_write_skips=delta("pipelined_write_skips"),
        elapsed_ms=runtime.clock.now - started,
        fingerprint=fingerprint,
        violations=violations,
    )


def bench_concurrent_throughput(
    session_counts: tuple[int, ...] = (1, 2, 4, 8),
    calls_per_session: int = 6,
) -> ExperimentTable:
    """Forces per call and throughput vs N: group commit off, on, and
    pipelined causal commit on top of it."""
    table = ExperimentTable(
        key="concurrent_throughput",
        title=(
            "Group commit and pipelined commit under concurrent sessions "
            f"({calls_per_session} calls/session, two shared server logs)"
        ),
        columns=[
            "forces/call (off)",
            "forces/call (on)",
            "forces/call (pipe)",
            "forces/call (shard)",
            "batches (on)",
            "riders (on)",
            "gated (pipe)",
            "calls/s (off)",
            "calls/s (on)",
            "calls/s (pipe)",
            "calls/s (shard)",
        ],
    )
    for n in session_counts:
        off = _run(n, group_commit=False, calls_per_session=calls_per_session)
        on = _run(n, group_commit=True, calls_per_session=calls_per_session)
        pipe = _run(
            n, group_commit=True, calls_per_session=calls_per_session,
            pipelined=True,
        )
        shard = _run(
            n, group_commit=True, calls_per_session=calls_per_session,
            sharded=True,
        )
        table.add_row(
            f"N={n}",
            Cell(off.forces_per_call),
            Cell(on.forces_per_call),
            Cell(pipe.forces_per_call),
            Cell(shard.forces_per_call),
            Cell(float(on.group_commit_batches)),
            Cell(float(on.group_commit_riders)),
            Cell(float(pipe.pipelined_gated)),
            Cell(off.calls_per_second),
            Cell(on.calls_per_second),
            Cell(pipe.calls_per_second),
            Cell(shard.calls_per_second),
        )
    table.notes.append(
        "off: every committing send writes (flat in N); on: forces "
        "within one rotation window share a write, so writes/call falls "
        "as sessions are added; pipe: Algorithm-2 sends whose causal "
        "prefix is already stable skip the force outright (TRC107 "
        "slack), so writes/call falls further and throughput rises; "
        "shard: sessions split across two log streams per process, so a "
        "committing send forces only the stream its causal target lives "
        "on and never pays for the other shard's unforced bytes"
    )
    return table
