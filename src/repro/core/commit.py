"""The commit gate: where Algorithm 2's commit point is chosen and made
stable.

A committing send asks ``runtime.commit`` for its commit point, one
``(stream, LSN)`` constraint, and then for the force that makes it
stable.  :func:`commit_gate` picks the gate once from the frozen config:
:class:`SerialGate`, :class:`GroupGate` or :class:`CausalGate`
(docs/internals.md sections 11 and 14).  A gate drives sessions only
through the scheduler's ``current_session``, ``block_until``,
``yield_point`` and ``session_clock``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..analysis import vector_clock
from ..errors import CrashSignal
from .process import ProcessState

if TYPE_CHECKING:  # pragma: no cover
    from ..concurrency.scheduler import DeterministicScheduler, Session
    from ..log.log_manager import LogManager
    from .process import LogStream
    from .runtime import PhoenixRuntime


class GroupCommitBatch:
    """One shared in-flight group write against one log stream.

    Two-phase completion: ``closed`` (the window expired; the leader may
    write) then ``done`` (the write finished or failed; riders may
    return).  The leader is the first waiter; riders block on ``done``
    and report ``wrote=False`` exactly like a force whose bytes were
    already flushed by someone else.
    """

    __slots__ = ("deadline", "waiters", "closed", "done", "error", "vc",
                 "wm")

    def __init__(self, deadline: float):
        self.deadline = deadline
        #: Every waiter, in join order, with its commit target under the
        #: causal gate — the LSN the log must be stable through before
        #: that waiter's send may leave.  The leader skips the shared
        #: write when an earlier in-flight write already covered every
        #: remaining target.
        self.waiters: dict[Session, int | None] = {}
        self.closed = False
        self.done = False
        self.error: BaseException | None = None
        #: Joined vector clock of every waiter; merged back into each
        #: waiter when the shared write completes (a sync edge: all
        #: batched records became stable together).
        self.vc: dict[int, int] = {}
        #: Causal gate only: joined durability watermarks, mirroring
        #: ``vc``.
        self.wm: dict[LogManager, int] = {}


def commit_gate(runtime: "PhoenixRuntime") -> "GroupGate":
    """The one gate ``runtime`` keeps for its whole life."""
    config = runtime.config
    if config.pipelined_commit:
        return CausalGate(runtime)
    if config.group_commit:
        return GroupGate(runtime)
    return SerialGate(runtime)


class GroupGate:
    """Group commit, and the base of the other two gates.

    A session's force request opens a window on its stream, shared by
    every request that joins before the window closes; each waiter's
    clock merges into the batch at join time and back out once the write
    is done.  The scheduler reports its run begin and end, ``spawn``,
    its context sync edges, and its decision loop's window close and
    sleep (False: no window is open, a deadlock).  No watermarks are
    kept, so every commit point is Algorithm 2's ``end_lsn``."""

    __slots__ = ("_clock", "_scheduler", "_batches")

    def __init__(self, runtime: "PhoenixRuntime"):
        self._clock = runtime.clock
        #: The scheduler of the active run; None between runs.
        self._scheduler: DeterministicScheduler | None = None
        self._batches: dict[LogStream, GroupCommitBatch] = {}

    def begin_run(self, scheduler: "DeterministicScheduler") -> None:
        self._scheduler = scheduler

    def end_run(self) -> None:
        self._scheduler = None
        self._batches.clear()

    def spawned(self, parent: "Session | None", child: "Session") -> None:
        pass

    def acquire_edge(self, session: "Session", uri: str) -> None:
        pass

    def release_edge(self, session: "Session", uri: str) -> None:
        pass

    def note_append(self, log: "LogManager") -> None:
        pass

    def commit_point(self, log: "LogManager") -> int:
        """The LSN a committing message on ``log`` (the context's own
        stream) must make stable."""
        return log.end_lsn

    def _session(self) -> "Session | None":
        scheduler = self._scheduler
        return None if scheduler is None else scheduler.current_session()

    def _windowed(self, stream: "LogStream") -> bool:
        """Whether a force on ``stream`` may wait in a window: only a
        session's (nobody else shares one), only while the process is
        RUNNING with no on-demand replay owed (a window wait inside
        replay would distort recovery timing for no sharing), and only
        with bytes buffered (otherwise the force is free either way)."""
        process = stream.process
        if (
            process.state is not ProcessState.RUNNING
            or process.incarnation.pending_recovery is not None
            or self._session() is None
        ):
            return False
        log = stream.log
        return log.stable_lsn != log.end_lsn

    def force(self, stream: "LogStream", commit_lsn: int | None = None) -> bool:
        """Make ``stream`` stable through ``commit_lsn`` (its whole
        buffer when None); returns whether this request wrote."""
        if not self._windowed(stream):
            return stream.force()
        return self._scheduler.group_force(stream, commit_lsn)

    def group_force(
        self, stream: "LogStream", commit_lsn: int | None = None
    ) -> bool:
        """Join (or open) the stream's batch.  The first waiter leads: it
        blocks until the window closes, then performs the one shared
        write.  Riders block until the leader finished and return False
        (their bytes rode the shared flush)."""
        scheduler = self._scheduler
        session = scheduler.current_session()
        batch, leading = self._join_batch(session, stream)
        vector_clock.merge_into(batch.vc, scheduler.session_clock(session))
        if leading:
            try:
                scheduler.block_until(
                    lambda: batch.closed,
                    tag=f"group-commit:{stream.name}",
                )
                return stream.execute_batch(len(batch.waiters) - 1)
            except BaseException as exc:
                batch.error = exc
                raise
            finally:
                batch.done = True
                # The shared write is a sync edge among all waiters.
                clock = scheduler.session_clock(session)
                vector_clock.merge_into(batch.vc, clock)
                vector_clock.merge_into(clock, batch.vc)
                if self._batches.get(stream) is batch:
                    del self._batches[stream]
        scheduler.block_until(
            lambda: batch.done, tag=f"group-ride:{stream.name}"
        )
        vector_clock.merge_into(scheduler.session_clock(session), batch.vc)
        return self._rode(stream, batch)

    def _join_batch(
        self, session: "Session", stream: "LogStream",
        target: int | None = None,
    ) -> tuple[GroupCommitBatch, bool]:
        """Add ``session`` to the stream's open batch, opening one (with
        the session as its leader) when none is open; returns the batch
        and whether the session leads it."""
        batch = self._batches.get(stream)
        leading = batch is None or batch.closed
        if leading:
            batch = GroupCommitBatch(self._clock.now + stream.group_window_ms())
            self._batches[stream] = batch
        batch.waiters[session] = target
        session.step_touches.add(stream.process.name)
        return batch, leading

    @staticmethod
    def _rode(stream: "LogStream", batch: GroupCommitBatch) -> bool:
        """A rider's answer once the shared write is done."""
        if batch.error is not None:
            # The shared write died.  The rider's own ghost check
            # normally catches the crash first (it holds a frame for the
            # same process); cover direct callers with a stale signal so
            # the boundary converts without re-crashing the process.
            raise CrashSignal(
                stream.name, "group-commit write",
                process=stream.process, stale=True,
            )
        return False

    def close_due_windows(self) -> None:
        now = self._clock.now
        for batch in self._batches.values():
            if not batch.closed and now >= batch.deadline:
                batch.closed = True

    def sleep_to_next_window(self) -> bool:
        deadlines = [b.deadline for b in self._batches.values() if not b.closed]
        if deadlines:
            # Every session is blocked on an open window: the only event
            # left is the earliest deadline, so time jumps straight to it.
            self._clock.advance_to(min(deadlines))
        return bool(deadlines)


class SerialGate(GroupGate):
    """Algorithm 2's gate: every force runs now, so no window ever
    opens."""

    __slots__ = ()

    def force(self, stream: "LogStream", commit_lsn: int | None = None) -> bool:
        return stream.force()


class CausalGate(GroupGate):
    """Pipelined causal commit: per-session durability watermarks, the
    relaxed commit point, gated sends and pipelined batches.

    A session's watermark for a log is the highest post-append end LSN
    it causally knows.  It is maintained on exactly the vector clocks'
    edges — own appends via :meth:`note_append`, merges at every sync
    edge the scheduler reports — so a send gated on its watermark is
    stable through at least its TRC107 happens-before cone.  The tables
    live for one run and are keyed by the incarnation's ``LogManager``,
    so a crashed incarnation's entries match nothing: the next one's log
    starts with none, and no entry can exceed its log's ``end_lsn``."""

    __slots__ = ("_wms", "_context_wms")

    def __init__(self, runtime: "PhoenixRuntime"):
        super().__init__(runtime)
        #: session index -> log -> watermark.
        self._wms: dict[int, dict[LogManager, int]] = {}
        #: Release-time watermarks of each context URI, mirroring the
        #: scheduler's per-context clocks.
        self._context_wms: dict[str, dict[LogManager, int]] = {}

    def begin_run(self, scheduler: "DeterministicScheduler") -> None:
        super().begin_run(scheduler)
        # Appends that happened before the run are totally ordered with
        # every session event, so every session starts knowing them —
        # the watermark analogue of the trace checker's serial max.  A
        # crashed process's log is all stable or torn (repair will cut
        # the torn bytes): nothing in it for a send to wait on.
        serial = {
            stream.log: stream.log.end_lsn
            for process in scheduler.runtime.processes()
            if process.state is ProcessState.RUNNING
            for stream in process.streams
        }
        self._wms = {s.index: dict(serial) for s in scheduler.sessions}
        self._context_wms = {}

    def end_run(self) -> None:
        super().end_run()
        self._wms = {}
        self._context_wms = {}

    def session_watermarks(self, session: "Session") -> dict["LogManager", int]:
        return self._wms.setdefault(session.index, {})

    def spawned(self, parent: "Session | None", child: "Session") -> None:
        if parent is not None:
            self._wms[child.index] = dict(self.session_watermarks(parent))

    def acquire_edge(self, session: "Session", uri: str) -> None:
        stored = self._context_wms.get(uri)
        if stored:
            vector_clock.merge_into(self.session_watermarks(session), stored)

    def release_edge(self, session: "Session", uri: str) -> None:
        vector_clock.merge_into(
            self._context_wms.setdefault(uri, {}),
            self.session_watermarks(session),
        )

    def note_append(self, log: "LogManager") -> None:
        """The calling session's watermark for ``log`` advances to the
        post-append end LSN.  ``vector_clock.merge_into`` is a generic
        pointwise max, so the same helper merges these dicts across sync
        edges."""
        session = self._session()
        if session is not None:
            wm = self.session_watermarks(session)
            end = log.end_lsn
            if end > wm.get(log, 0):
                wm[log] = end

    def commit_point(self, log: "LogManager") -> int:
        """The session's *causal* watermark: the highest LSN in its
        causal prefix.  Everything the session appended or learned of
        through a sync edge is below it; records of causally unrelated
        sessions are not — exactly the slack TRC107 permits, and TRC107
        recomputes that cone independently from the trace's vector
        clocks, so an under-computed watermark cannot pass unnoticed.
        Outside a run, or on the main thread, it is ``end_lsn``."""
        session = self._session()
        if session is None:
            return log.end_lsn
        return self.session_watermarks(session).get(log, 0)

    def force(self, stream: "LogStream", commit_lsn: int | None = None) -> bool:
        if not self._windowed(stream):
            return stream.force()
        if commit_lsn is not None and stream.log.stable_lsn >= commit_lsn:
            # Causally-gated send: the requester's whole causal prefix
            # is already durable (another session's force flushed it),
            # so Algorithm 2's "force all previous" is satisfied for
            # everything this send could depend on — release it without
            # a write or a window wait.  Volatile bytes above the target
            # belong to causally unrelated sessions (TRC107's slack).
            stream.note_gated()
            return False
        return self._scheduler.group_force(stream, commit_lsn)

    def group_force(
        self, stream: "LogStream", commit_lsn: int | None = None
    ) -> bool:
        """The pipelined batch: the leader yields once between the
        window closing and the write (``log.submit``), so the next batch
        opens while this one is in flight; a waiter whose commit target
        an earlier in-flight write already covered releases immediately
        instead of waiting for its own batch; and a closed batch whose
        every remaining target is stable skips its write.

        A waiter does NOT merge into the batch clock at join time — an
        early-released waiter never synchronized with the batch, and a
        join-time merge would forge a happens-before edge that could
        hide a real TRC108 race.  Instead the leader joins the remaining
        waiters' clocks at write time, and only waiters that stayed for
        the write merge the batch clock back."""
        scheduler = self._scheduler
        session = scheduler.current_session()
        log = stream.log
        target = commit_lsn if commit_lsn is not None else log.end_lsn
        batch, leading = self._join_batch(session, stream, target)
        if leading:
            try:
                scheduler.block_until(
                    lambda: batch.closed or (
                        len(batch.waiters) == 1
                        and log.stable_lsn >= target
                    ),
                    tag=f"group-commit:{stream.name}",
                )
                if not batch.closed:
                    # An earlier in-flight write covered our causal
                    # prefix and nobody joined: cancel the batch.
                    del batch.waiters[session]
                    stream.note_gated()
                    return False
                # The window closed; the write is now in flight.  Yield
                # before performing it so other sessions can open (and
                # even close) the next batch underneath it.
                scheduler.yield_point(f"log.submit:{stream.name}")
                riders = len(batch.waiters) - 1
                for waiter in batch.waiters:
                    vector_clock.merge_into(
                        batch.vc, scheduler.session_clock(waiter)
                    )
                    vector_clock.merge_into(
                        batch.wm, self.session_watermarks(waiter)
                    )
                needed = max(batch.waiters.values())
                if log.stable_lsn >= needed:
                    # Every remaining waiter's prefix was covered by an
                    # earlier in-flight write: elide the disk write.
                    stream.note_write_skip(1 + riders)
                    return False
                return stream.execute_batch(riders)
            except BaseException as exc:
                batch.error = exc
                raise
            finally:
                batch.done = True
                self._merge_batch(session, batch)
                if self._batches.get(stream) is batch:
                    del self._batches[stream]
        scheduler.block_until(
            lambda: batch.done or log.stable_lsn >= target,
            tag=f"group-ride:{stream.name}",
        )
        if not batch.done:
            # Early release: an earlier in-flight write made our causal
            # prefix stable before our own batch got to the platter.
            del batch.waiters[session]
            stream.note_gated()
            return False
        self._merge_batch(session, batch)
        return self._rode(stream, batch)

    def _merge_batch(self, session: "Session", batch: GroupCommitBatch) -> None:
        vector_clock.merge_into(
            self._scheduler.session_clock(session), batch.vc
        )
        vector_clock.merge_into(self.session_watermarks(session), batch.wm)
