"""The per-component replay table every process restart drains.

After analysis (:meth:`RecoveryManager.recover`: repair the tail,
re-mark, seed the tables from the checkpoint, restore state-record
contexts, register a shell for every discovered context), recovery's
redo is one :class:`PendingRecovery`: each component's frame chain,
grouped from the frame index the tail repair rebuilt from stable bytes
(:meth:`LogManager.component_chains`), replayed with the reply cache
intact.  Every record goes into its context's buffer in the one
:class:`RecoveryManager` the table owns; a mark's chain is a cursor
over what has been handed over.  Only the schedule that drains it
differs:

1. **Eager** (the paper's stop-the-world restart, Section 4.4 and
   Table 7): :meth:`PendingRecovery.drain_all` before the process
   leaves RECOVERING — one log-order read of the merged chains (Figure
   5's redo pass), then each context's last call, replayed final in
   context-id order.

2. **On demand** (``config.on_demand_recovery``, after Sauer &
   Härder's instant restart and Lomet's performance-competitive logical
   recovery): the process leaves RECOVERING right after analysis, so
   time-to-first-reply no longer grows with log size.  The runtime
   consults the table before delivering a call and replays a
   not-yet-recovered target's chain first; when the deterministic
   scheduler is active, ``DRAIN_WORKERS`` drain sessions share the
   rest.

3. **Sharded** (``config.sharded_logging``): one drain per stream that
   has anything pending, as a clock lane or a scheduler session.

4. **One context** (``recover_context``, a context crash in a live
   process): one mark, replayed at once by :meth:`ensure_component`.

The on-demand and sharded drains are one loop, :meth:`PendingRecovery.drain`
(one chain at a time, a scheduling point after each); the schedules
differ only in which contexts each drain gets and whether it runs as
a session (:meth:`PendingRecovery.spawn_drains`) or a clock lane.

Every restart that leaves a component pending publishes the table on
the process before the first replay.  While it is published, a call
into a component not yet replayed — including a replay that went live
— replays that component first, so duplicate detection finds the
regenerated reply.
The table is the single coordination point: every component is
``PENDING`` (chain not applied), ``REPLAYING`` (owned by exactly one
session: a per-chain replay, or a drain that claimed it), or
``RECOVERED`` (``applied_lsn`` = the last LSN of its chain that has been
applied), so lazy and background replay never double-apply.  When the
last mark turns RECOVERED the table detaches itself from the process.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from functools import partial
from typing import TYPE_CHECKING

from ..core.tables import NO_LSN
from ..errors import CrashSignal, LogCorruptionError
from ..faults import plane as faultplane

if TYPE_CHECKING:  # pragma: no cover
    from ..core.process import AppProcess
    from ..log.inspect import ContextFacts
    from .recovery_manager import RecoveryManager

PENDING = "pending"
REPLAYING = "replaying"
RECOVERED = "recovered"

#: background drain sessions spawned per admitted process
DRAIN_WORKERS = 2


class ComponentWatermark:
    """One component's recovery progress."""

    __slots__ = (
        "context_id", "restored", "state_lsn", "chain", "reply_floor",
        "cursor", "status", "owner", "applied_lsn",
    )

    def __init__(
        self,
        context_id: int,
        restored: bool,
        state_lsn: int,
        chain: list[int],
        reply_floor: int,
    ):
        self.context_id = context_id
        self.restored = restored  # state record already applied
        self.state_lsn = state_lsn
        #: The LSNs of this component's not-yet-applied records, in log
        #: order (its frame chain past the restored state record).
        self.chain = chain
        #: Reply records at or below this LSN of the component's stream
        #: are already in the last-call table (``NO_LSN``: none are).
        self.reply_floor = reply_floor
        #: How many of ``chain``'s records have been handed to the replay
        #: buffers (the log-order drain advances it record by record; a
        #: per-chain replay consumes the rest at once).
        self.cursor = 0
        self.status = PENDING
        #: Session index replaying this component (None = main thread),
        #: meaningful only while ``status == REPLAYING``.
        self.owner: int | None = None
        self.applied_lsn = NO_LSN

    def __repr__(self) -> str:
        return (
            f"ComponentWatermark(#{self.context_id}, {self.status}, "
            f"chain={self.cursor}/{len(self.chain)}, "
            f"applied={self.applied_lsn})"
        )


class PendingRecovery:
    """The per-component recovery watermark table of one admitted (but
    not yet fully replayed) process incarnation."""

    def __init__(
        self,
        manager: "RecoveryManager",
        discoveries: dict[int, "ContextFacts"],
    ):
        self.process: "AppProcess" = manager.process
        self.runtime = manager.runtime
        #: The one redo engine: every context's replay buffer lives in
        #: it, whichever schedule hands it the records.
        self.redo = manager
        self.marks: dict[int, ComponentWatermark] = {}
        if not discoveries:
            return
        # Each component's frame chain comes from its owning stream's
        # frame index (one stream under the flag-off runtime); LSN
        # spaces are per stream, so the chains' window is too.
        starts: dict[int, int] = {}
        for info in discoveries.values():
            start = starts.get(info.stream, info.start_lsn)
            starts[info.stream] = min(start, info.start_lsn)
        chains_by_stream = {
            stream: self.process.streams[stream].log.component_chains(start)
            for stream, start in starts.items()
        }
        for info in discoveries.values():
            restored = info.state is not None
            chain = chains_by_stream[info.stream].get(info.context_id, [])
            # Chains are sorted: cut at the first LSN still to apply.
            if restored:
                tail = chain[bisect_right(chain, info.state_lsn):]
            else:
                tail = chain[bisect_left(chain, info.creation_lsn):]
            mark = ComponentWatermark(
                info.context_id, restored, info.state_lsn, tail,
                manager.reply_watermarks.get(info.stream, NO_LSN),
            )
            if restored and not tail:
                # Nothing past the state record: the restore already
                # recovered this component in full.
                mark.status = RECOVERED
                mark.applied_lsn = info.state_lsn
            self.marks[info.context_id] = mark

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        return sum(1 for m in self.marks.values() if m.status != RECOVERED)

    def component_recovered(self, context_id: int) -> bool:
        mark = self.marks.get(context_id)
        return mark is None or mark.status == RECOVERED

    def start_lsns(self, stream: int = 0) -> list[int]:
        """Every not-yet-applied chain head on ``stream`` — log
        truncation must never reclaim these."""
        stream_index = self.process.stream_index
        return [
            m.chain[0]
            for m in self.marks.values()
            if m.status != RECOVERED
            and m.chain
            and stream_index(m.context_id) == stream
        ]

    def _current_owner_key(self) -> int | None:
        return self.runtime.scheduler.current_session_id()

    # ------------------------------------------------------------------
    # the admission rule
    # ------------------------------------------------------------------
    def ensure_component(self, context_id: int) -> None:
        """Called by the runtime before delivering a call: the target
        component's chain must be applied before the call can execute,
        so duplicate detection finds the regenerated reply.  Replays
        inline when the component is unclaimed; parks behind the owning
        session otherwise.  The owner's own touch finishes a component
        whose last call is still buffered (a drain claimed it and has
        not replayed it yet) and is a no-op otherwise (the component's
        own replay going live into itself)."""
        process = self.process
        mark = self.marks.get(context_id)
        if mark is None:
            return  # created after recovery; nothing to apply
        while True:
            if process.incarnation.pending_recovery is not self:
                return  # table retired: drained, or a fresh crash
            if mark.status == RECOVERED:
                return
            if mark.status == PENDING:
                self._replay_component(mark)
                return
            if mark.owner == self._current_owner_key():
                if context_id in self.redo.buffers:
                    self._replay_component(mark)
                return
            self.runtime.scheduler.block_until(
                lambda: mark.status == RECOVERED
                or process.incarnation.pending_recovery is not self,
                tag=f"lazy-recovery:{process.name}#{context_id}",
            )

    # ------------------------------------------------------------------
    # per-component replay
    # ------------------------------------------------------------------
    def _replay_component(self, mark: ComponentWatermark) -> None:
        """Replay what is left on ``mark``'s cursor and finish the
        component with its last call, replayed final."""
        process = self.process
        name = process.name
        context_id = mark.context_id
        mark.status = REPLAYING
        mark.owner = self._current_owner_key()
        faultplane.site_hit(f"recovery.lazy_replay.before:{name}", name)
        rest = mark.chain[mark.cursor:]
        mark.cursor = len(mark.chain)
        redo = self.redo
        try:
            for lsn, record in process.log_for(context_id).read_records(rest):
                redo.replay_record(lsn, record, mark.restored, mark.reply_floor)
            redo.drain_context(context_id)
        except LogCorruptionError:
            # The chain cannot be read, so this component is half
            # replayed and its mark would stay REPLAYING, which later
            # touches take for their own re-entrant replay and execute
            # against.  Same rule as RecoveryService.restart: the
            # process stays crashed and every retry gets this error.
            process.crash()
            raise
        # Replay effects (regenerated records of live-continued calls)
        # become stable before the component is declared recovered.
        process.log_for(context_id).force()
        faultplane.site_hit(f"recovery.lazy_replay.after:{name}", name)
        mark.applied_lsn = mark.chain[-1] if mark.chain else mark.state_lsn
        mark.status = RECOVERED
        mark.owner = None
        # Replay effects (including the live-continued tail call) bypass
        # context admission; publish the replayer's clock so the next
        # session admitted to this context is happens-after the replay.
        entry = process.incarnation.context_table.get(context_id)
        context = None if entry is None else entry.context_ref
        if context is not None:
            self.runtime.scheduler.publish_context(context)
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        process = self.process
        if process.incarnation.pending_recovery is not self:
            return
        if all(m.status == RECOVERED for m in self.marks.values()):
            process.incarnation.pending_recovery = None

    # ------------------------------------------------------------------
    # foreground drain (the full-recovery barrier)
    # ------------------------------------------------------------------
    def drain_all(self) -> None:
        """Replay every remaining component now (eager restart;
        workloads, benchmarks and state capture need the fully recovered
        process).

        The drain claims every PENDING component, reads their chains in
        one log-order pass (:meth:`_redo_in_log_order`), then finishes
        each claimed component in context-id order through
        :meth:`_replay_component`, with nothing left on its cursor."""
        process = self.process
        while process.incarnation.pending_recovery is self:
            claimed = self._claim_pending()
            if claimed:
                self._redo_in_log_order(claimed)
                for mark in claimed:
                    if process.incarnation.pending_recovery is not self:
                        return
                    # A live call may have finished it already.
                    if mark.status == REPLAYING:
                        self._replay_component(mark)
                continue
            busy = [
                m for m in self.marks.values() if m.status == REPLAYING
            ]
            if not busy:
                self._maybe_finish()
                return
            self.runtime.scheduler.block_until(
                lambda: process.incarnation.pending_recovery is not self
                or not any(
                    m.status == REPLAYING for m in self.marks.values()
                ),
                tag=f"drain-all:{process.name}",
            )

    def _claim_pending(self) -> list[ComponentWatermark]:
        """Every PENDING mark, in context-id order, now REPLAYING and
        owned by the calling session: other sessions that touch one
        park until the drain has finished it."""
        owner = self._current_owner_key()
        claimed = []
        for context_id in sorted(self.marks):
            mark = self.marks[context_id]
            if mark.status == PENDING:
                mark.status = REPLAYING
                mark.owner = owner
                claimed.append(mark)
        return claimed

    def _redo_in_log_order(self, claimed: list[ComponentWatermark]) -> None:
        """The paper's redo pass (Figure 5): the claimed chains merged
        into one LSN-ordered list per stream, read with one
        ``read_records`` call, and each record handed to its context's
        buffer in the one redo engine — every call but each context's
        last is replayed here, as the next one arrives."""
        process = self.process
        redo = self.redo
        by_stream: dict[int, dict[int, ComponentWatermark]] = {}
        for mark in claimed:
            if mark.chain:
                stream = process.stream_index(mark.context_id)
                by_stream.setdefault(stream, {})[mark.context_id] = mark
        for stream in sorted(by_stream):
            marks = by_stream[stream]
            lsns = list(heapq.merge(*(mark.chain for mark in marks.values())))
            log = process.streams[stream].log
            try:
                for lsn, record in log.read_records(lsns):
                    if process.incarnation.pending_recovery is not self:
                        return
                    mark = marks[record.context_id]
                    if mark.status != REPLAYING:
                        continue  # a live call finished it already
                    mark.cursor += 1
                    redo.replay_record(
                        lsn, record, mark.restored, mark.reply_floor
                    )
            except LogCorruptionError:
                # Same rule as _replay_component: the claimed components
                # are half replayed, so the process stays crashed.
                process.crash()
                raise

    # ------------------------------------------------------------------
    # per-component drains (background sessions and clock lanes)
    # ------------------------------------------------------------------
    def drain(self, members: list[int], label: str | None = None) -> None:
        """Replay ``members``' pending components one at a time, in the
        given order, with a scheduling point after each component.

        Drains over the same members share the work: each skips what
        another (or a live call's lazy replay) has claimed.  A labelled
        drain (one stream's shard) ends by crossing its drained site."""
        process = self.process
        name = process.name
        for context_id in members:
            if process.incarnation.pending_recovery is not self:
                return
            mark = self.marks[context_id]
            if mark.status != PENDING:
                continue
            faultplane.site_hit(f"recovery.drain_worker:{name}", name)
            self._replay_component(mark)
            self.runtime.sched_yield(f"recovery.shard:{name}")
        if label is not None:
            faultplane.site_hit(f"recovery.shard.drained:{label}", name)

    def spawn_drains(
        self, groups: list[tuple[str | None, list[int]]]
    ) -> None:
        """Run one :meth:`drain` per ``(label, members)`` group as a
        system session on the deterministic scheduler."""
        process = self.process
        scheduler = self.runtime.scheduler

        def session(members: list[int], label: str | None) -> None:
            # Hold a process frame for the whole drain: a replay's
            # live-continued call can park this session inside the
            # process with no boundary frame of its own, and a second
            # crash while parked must ghost the drain (stale CrashSignal
            # on resume) instead of letting it keep executing against
            # the dead incarnation's retired table.  There is no process
            # boundary above a drain to convert a fresh signal (a
            # one-shot fault spec, or a cascade), so it is handled here
            # and the table dies with the crash.
            pushed = scheduler.enter_process(process)
            try:
                self.drain(members, label)
            except CrashSignal as signal:
                if signal.process is not None and not signal.stale:
                    signal.process.crash()
            finally:
                if pushed:
                    scheduler.exit_process()

        for label, members in groups:
            scheduler.spawn(
                partial(session, members, label),
                name=f"drain-{label or process.name}",
            )

    def stream_groups(self) -> list[tuple[str, list[int]]]:
        """The pending contexts of each stream, in context-id order,
        labelled with the stream's name (sharded recovery's partition)."""
        process = self.process
        groups: dict[int, list[int]] = {}
        for context_id in sorted(self.marks):
            if self.marks[context_id].status != RECOVERED:
                groups.setdefault(
                    process.stream_index(context_id), []
                ).append(context_id)
        return [
            (process.streams[stream].name, groups[stream])
            for stream in sorted(groups)
        ]
