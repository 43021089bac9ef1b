"""Recovery (paper Section 4.4 and Figure 5).

Process-crash recovery runs two passes over the stable log:

* **Pass 1** starts at the LSN in the well-known file (the last flushed
  process checkpoint), or at the beginning of the log.  It finds every
  context that existed at the crash, the latest state-record LSN (or
  creation LSN) of each, and seeds the global tables from the
  checkpoint's table records.  Contexts with state records are restored
  right after this pass (ordinary fields applied, component references
  resolved).

* **Pass 2** scans from the minimum recovery-start LSN to the end,
  buffering each context's message records until its next incoming call
  record; the buffered previous call is then replayed with its outgoing
  calls answered from the buffered replies.  After the scan, the
  remaining buffered calls — the last incoming call of each context —
  are replayed; if a reply to an outgoing call is missing from the log,
  the call is not suppressed and normal execution begins (the log has
  run dry).  Replay regenerates the last-call table; its replies are
  never sent (condition 5) — the caller's retry fetches them via
  duplicate detection.

Context-crash recovery is the easy case at the bottom: restore the
context's latest state record (or replay its creation) and replay only
that context's incoming calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from ..common.messages import MessageKind, MethodCallMessage, ReplyMessage
from ..core.context import Context
from ..core.interceptor import MessageInterceptor
from ..core.swizzle import unswizzle_for_message
from ..core.tables import ContextTableEntry, NO_LSN
from ..errors import RecoveryError
from ..faults import plane as faultplane
from ..log.records import (
    CheckpointContextTableRecord,
    CheckpointLastCallRecord,
    CheckpointRemoteTypeRecord,
    ContextStateRecord,
    CreationRecord,
    LastCallReplyRecord,
    MessageRecord,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..core.process import AppProcess

# What each pass consumes (Section 4.4).  The scans ask the log for
# these kinds only; every other frame is skipped through the log's kind
# index without being decoded.  Begin/end checkpoint records are read by
# neither pass.
_PASS_ONE_KINDS = (
    CreationRecord,
    ContextStateRecord,
    CheckpointContextTableRecord,
    CheckpointRemoteTypeRecord,
    CheckpointLastCallRecord,
)
_PASS_TWO_KINDS = (CreationRecord, LastCallReplyRecord, MessageRecord)


@dataclass
class _ContextDiscovery:
    """What pass 1 learned about one context."""

    context_id: int
    creation_lsn: int = NO_LSN
    creation: CreationRecord | None = None
    state_lsn: int = NO_LSN
    state: ContextStateRecord | None = None
    #: The stream index whose scan found this context's records (0 for
    #: the legacy log; sharded logging keeps each context's records on
    #: exactly one stream, so the discovery rebuilds the routing table).
    stream: int = 0

    @property
    def start_lsn(self) -> int:
        return self.state_lsn if self.state_lsn != NO_LSN else self.creation_lsn


@dataclass
class _Pending:
    """A buffered call awaiting replay (Figure 5)."""

    order: int
    creation: CreationRecord | None = None
    message: MethodCallMessage | None = None
    replies: list[ReplyMessage] = field(default_factory=list)
    reply_sent: bool = False


class RecoveryManager:
    """Recovers one crashed process."""

    def __init__(self, process: "AppProcess"):
        self.process = process
        self.runtime = process.runtime
        self._pending: dict[int, _Pending] = {}
        self._order = 0
        # Per-stream reply watermarks (pass 1's scan starts).  Reply
        # records at or below a stream's watermark are already covered
        # by the checkpoint's last-call table record, so pass 2 rebuilds
        # the reply cache only from the suffix past it — on
        # recover-twice (crash during recovery) the whole-tail re-decode
        # is gone.  Stream 0's watermark is the published checkpoint
        # LSN; extra streams default to NO_LSN (their scans start at
        # their own truncation point, so re-seeding is already bounded).
        self._reply_watermarks: dict[int, int] = {}

    def _reply_floor(self, stream: int) -> int:
        return self._reply_watermarks.get(stream, NO_LSN)

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------
    def recover(self) -> None:
        process = self.process
        runtime = self.runtime
        name = process.name
        runtime.clock.advance(runtime.costs.runtime_init)
        for stream in process.streams:
            repaired = stream.log.repair_tail()
            # A torn write leaves partial frame bytes in the stable
            # file, so the crash mark taken at crash time (from the raw
            # file size) can sit past what repair just kept.  Re-mark at
            # the repaired boundary: records in the torn region are gone
            # and their LSNs will be reused.
            stream.trace.note_crash(repaired)
        # Durability watermarks (pipelined commit) are volatile state:
        # repair may have truncated torn frames below the crash-time
        # stable LSN, so clamp every session's watermark for this log to
        # the repaired boundary — they are rebuilt from fresh appends,
        # exactly like PendingRecovery.
        scheduler = getattr(runtime, "scheduler", None)
        if scheduler is not None and scheduler.active:
            scheduler.clamp_watermarks(process)
        # Pass-boundary crash sites: a second crash while recovery itself
        # is running must leave a log from which a fresh recovery still
        # reaches the same state (crash-during-recovery cascades).
        faultplane.site_hit(f"recovery.start:{name}", name)
        process.active_recovery = self

        try:
            discoveries = self._pass_one()
            faultplane.site_hit(f"recovery.pass1:{name}", name)
            self._restore_saved_contexts(discoveries)
            faultplane.site_hit(f"recovery.restored:{name}", name)
            if process.config.on_demand_recovery:
                # Analysis is done: admit new calls now and replay each
                # component lazily / in the background (incremental.py).
                self._admit_on_demand(discoveries)
            elif len(process.streams) > 1:
                # Sharded eager recovery: each stream's shard replays as
                # an independent drain (parallel sessions under the
                # scheduler, per-shard clock lanes in the serial
                # runtime), so recovery time scales with the largest
                # shard instead of the whole log.
                self._recover_shards(discoveries)
            else:
                self._pass_two(discoveries)
                faultplane.site_hit(f"recovery.pass2:{name}", name)
                self._drain_all()
                faultplane.site_hit(f"recovery.drained:{name}", name)
                # Make everything recovery produced (including effects
                # of live-continued calls) stable before declaring the
                # process recovered.
                process.log.force()
                faultplane.site_hit(f"recovery.done:{name}", name)
        finally:
            process.active_recovery = None
        if process.context_table:
            process._next_component_lid = max(process.context_table) + 1

    def _admit_on_demand(
        self, discoveries: dict[int, _ContextDiscovery]
    ) -> None:
        """On-demand admission: register a shell for every discovered
        context (so lookups resolve and log truncation keeps protecting
        their chains), install the per-component watermark table, and
        hand the remaining replay to lazy first-touch + background
        drain workers."""
        from .incremental import PendingRecovery

        process = self.process
        name = process.name
        for info in sorted(discoveries.values(), key=lambda d: d.context_id):
            if info.state is None:
                self._register_context(info)
        pending = PendingRecovery(self, discoveries)
        if pending.pending_count():
            process.pending_recovery = pending
        faultplane.site_hit(f"recovery.admit_early:{name}", name)
        if process.pending_recovery is pending:
            pending.spawn_workers()

    # ------------------------------------------------------------------
    # sharded eager recovery (config.sharded_logging)
    # ------------------------------------------------------------------
    def _recover_shards(
        self, discoveries: dict[int, _ContextDiscovery]
    ) -> None:
        """Replay each stream's shard as an independent drain.

        Replay rides on-demand recovery's per-component watermark table
        (each component's frame chain comes from its owning stream), so
        the two extensions compose.  Under the deterministic scheduler
        one drain session is spawned per shard and admission control
        covers the window until the last drain retires the table; in the
        serial runtime each shard replays as its own clock *lane* from
        the recovery start time and the clock then advances to the
        longest lane — recovery time scales with the largest shard.
        """
        from .incremental import PendingRecovery

        process = self.process
        name = process.name
        for info in sorted(discoveries.values(), key=lambda d: d.context_id):
            if info.state is None:
                self._register_context(info)
        pending = PendingRecovery(self, discoveries)
        faultplane.site_hit(f"recovery.pass2:{name}", name)
        scheduler = getattr(self.runtime, "scheduler", None)
        if (
            scheduler is not None
            and scheduler.active
            and scheduler.current_session() is not None
        ):
            if pending.pending_count():
                process.pending_recovery = pending
                pending.spawn_shard_workers()
            return
        self._drain_shard_lanes(pending, discoveries)
        faultplane.site_hit(f"recovery.drained:{name}", name)
        for stream in process.streams:
            stream.log.force()
        faultplane.site_hit(f"recovery.done:{name}", name)

    def _drain_shard_lanes(
        self,
        pending,
        discoveries: dict[int, _ContextDiscovery],
    ) -> None:
        """Serial-runtime shard drains: one clock lane per stream."""
        from .incremental import PENDING as PENDING_MARK

        process = self.process
        runtime = self.runtime
        name = process.name
        groups: dict[int, list[int]] = {}
        for info in discoveries.values():
            groups.setdefault(info.stream, []).append(info.context_id)

        def drain(index: int) -> None:
            for context_id in sorted(groups[index]):
                mark = pending.marks.get(context_id)
                if mark is not None and mark.status == PENDING_MARK:
                    pending._replay_component(mark)
            stream = process.streams[index]
            stream.log.force()
            faultplane.site_hit(
                f"recovery.shard.drained:{stream.name}", name
            )
            runtime.sched_yield(f"recovery.shard:{name}")

        runtime.clock.run_lanes(
            partial(drain, index) for index in sorted(groups)
        )

    # ------------------------------------------------------------------
    # pass 1
    # ------------------------------------------------------------------
    def _pass_one(self) -> dict[int, _ContextDiscovery]:
        process = self.process
        discoveries: dict[int, _ContextDiscovery] = {}
        for index in range(len(process.streams)):
            self._scan_stream(index, discoveries)
        # The crash wiped the in-memory routing table; the discoveries
        # rebuild it — every context maps back to the stream its records
        # were found on, so replay appends route exactly as the original
        # run did.
        for info in discoveries.values():
            process.assign_stream(info.context_id, info.stream)
        self._materialize_pointers(discoveries)
        return discoveries

    def _scan_stream(
        self, index: int, discoveries: dict[int, _ContextDiscovery]
    ) -> None:
        process = self.process
        log = process.streams[index].log
        published = log.read_well_known_lsn()
        start = published or 0
        if index == 0:
            # Stream 0's well-known LSN is the published checkpoint;
            # extra streams publish their truncation point instead (the
            # scan anchor), which covers no last-call entries.
            self._reply_watermarks[0] = (
                NO_LSN if published is None else published
            )

        def discovery(context_id: int) -> _ContextDiscovery:
            if context_id not in discoveries:
                discoveries[context_id] = _ContextDiscovery(context_id)
            return discoveries[context_id]

        for lsn, record in log.scan(start, kinds=_PASS_ONE_KINDS):
            if isinstance(record, CreationRecord):
                info = discovery(record.context_id)
                info.stream = index
                info.creation_lsn = lsn
                info.creation = record
            elif isinstance(record, ContextStateRecord):
                info = discovery(record.context_id)
                info.stream = index
                if lsn > info.state_lsn:
                    info.state_lsn = lsn
                    info.state = record
            elif isinstance(record, CheckpointContextTableRecord):
                for entry in record.entries:
                    info = discovery(entry.context_id)
                    if info.creation_lsn == NO_LSN:
                        info.creation_lsn = entry.creation_lsn
                    if entry.state_record_lsn > info.state_lsn:
                        info.state_lsn = entry.state_record_lsn
                        info.state = None  # read lazily below
            elif isinstance(record, CheckpointRemoteTypeRecord):
                for uri, component_type in record.entries:
                    process.remote_types.seed(uri, component_type)
            elif isinstance(record, CheckpointLastCallRecord):
                for entry in record.entries:
                    process.last_calls.seed(
                        entry.caller_key,
                        entry.call_id,
                        NO_LSN,
                        reply_lsn=entry.reply_lsn,
                    )

    def _materialize_pointers(
        self, discoveries: dict[int, _ContextDiscovery]
    ) -> None:
        # Materialize records the checkpoint only pointed at.  A context
        # with a state record does not need its creation record — the
        # state record carries identity and class information — which is
        # what lets log garbage collection reclaim old creation records.
        # Pointer LSNs live in the owning stream's LSN space; every
        # pointed-at record survives truncation (the truncation point
        # never passes a recovery-start LSN), so the owning stream's own
        # scan has already assigned ``info.stream``.
        for info in discoveries.values():
            log = self.process.streams[info.stream].log
            if info.state_lsn != NO_LSN and info.state is None:
                record = log.read_record(info.state_lsn)
                if not isinstance(record, ContextStateRecord):
                    raise RecoveryError(
                        f"checkpoint points at LSN {info.state_lsn}, which "
                        "is not a context state record"
                    )
                info.state = record
            if info.creation is None and info.state is None:
                if info.creation_lsn == NO_LSN:
                    raise RecoveryError(
                        f"context {info.context_id} has neither a creation "
                        "record nor a state record on the log"
                    )
                record = log.read_record(info.creation_lsn)
                if not isinstance(record, CreationRecord):
                    raise RecoveryError(
                        f"LSN {info.creation_lsn} is not a creation record"
                    )
                info.creation = record

    # ------------------------------------------------------------------
    # restore contexts that have state records
    # ------------------------------------------------------------------
    def _restore_saved_contexts(
        self, discoveries: dict[int, _ContextDiscovery]
    ) -> None:
        from ..checkpoint.state_record import restore_context_state

        for info in sorted(discoveries.values(), key=lambda d: d.context_id):
            if info.state is None:
                continue
            context = self._register_context(info)
            # Reading the creation record, creating the object shell and
            # registering it costs the same as the creation path; the
            # state restore is charged inside restore_context_state.
            self.runtime.clock.advance(self.runtime.costs.object_creation)
            restore_context_state(self.process, context, info.state)

    def _register_context(self, info: _ContextDiscovery) -> Context:
        """Materialize the Context shell from the creation record, or —
        when the creation record was garbage-collected — from the state
        record's identity information."""
        process = self.process
        if info.creation is not None:
            uri = info.creation.uri
            component_type = info.creation.component_type
        else:
            state = info.state
            assert state is not None and state.snapshots
            uri = state.uri
            component_type = state.snapshots[0].component_type
        context = Context(
            process,
            info.context_id,
            uri,
            component_type,
        )
        process.context_table[info.context_id] = ContextTableEntry(
            context_id=info.context_id,
            uri=uri,
            state_record_lsn=info.state_lsn,
            creation_lsn=info.creation_lsn,
            context_ref=context,
        )
        return context

    # ------------------------------------------------------------------
    # pass 2
    # ------------------------------------------------------------------
    def _pass_two(self, discoveries: dict[int, _ContextDiscovery]) -> None:
        if not discoveries:
            return
        process = self.process
        start = min(info.start_lsn for info in discoveries.values())
        skip_before = {
            info.context_id: info.state_lsn for info in discoveries.values()
        }

        for lsn, record in process.log.scan(start, kinds=_PASS_TWO_KINDS):
            context_id = record.context_id
            threshold = skip_before.get(context_id, NO_LSN)
            if threshold != NO_LSN and lsn <= threshold:
                continue  # earlier than the restored state record
            if isinstance(record, CreationRecord):
                info = discoveries.get(context_id)
                if info is not None and info.state is not None:
                    continue  # restored from a later state record
                self._register_context(
                    discoveries.get(context_id)
                    or _ContextDiscovery(
                        context_id, creation_lsn=lsn, creation=record
                    )
                )
                self._pending[context_id] = _Pending(
                    order=self._next_order(), creation=record
                )
            elif isinstance(record, LastCallReplyRecord):
                floor = self._reply_floor(0)
                if floor != NO_LSN and lsn <= floor:
                    # Below the published checkpoint the checkpoint's
                    # own last-call record (pass 1) or a state-record
                    # restore already installed this entry with its
                    # reply LSN; a duplicate-detection hit reads the
                    # reply lazily.  Re-decoding the whole tail here
                    # made recover-twice rebuild the reply cache from
                    # scratch.
                    continue
                # The record was just decoded by the scan; caching the
                # reply object now means a later duplicate-detection hit
                # resolves from memory instead of re-reading the log.
                process.last_calls.seed(
                    record.caller_key,
                    record.call_id,
                    record.context_id,
                    reply=record.reply,
                    reply_lsn=lsn,
                )
            elif isinstance(record, MessageRecord):
                self._scan_message(context_id, lsn, record)

    def _scan_message(
        self, context_id: int, lsn: int, record: MessageRecord
    ) -> None:
        process = self.process
        if record.kind is MessageKind.INCOMING_CALL:
            message = record.message
            assert isinstance(message, MethodCallMessage)
            pending = self._pending.get(context_id)
            if pending is not None:
                del self._pending[context_id]
                self._replay(context_id, pending, final=False)
            self._pending[context_id] = _Pending(
                order=self._next_order(), message=message
            )
            if message.call_id is not None:
                client_type = MessageInterceptor.client_type_of(message)
                if client_type.is_persistent_family:
                    process.last_calls.seed(
                        message.call_id.caller_key,
                        message.call_id,
                        context_id,
                    )
        elif record.kind is MessageKind.REPLY_FROM_OUTGOING:
            pending = self._pending.get(context_id)
            if pending is None:
                # A reply whose incoming call predates this context's
                # replay window (restored state covers it).
                return
            assert isinstance(record.message, ReplyMessage)
            pending.replies.append(record.message)
        elif record.kind is MessageKind.REPLY_TO_INCOMING:
            pending = self._pending.get(context_id)
            if pending is not None:
                pending.reply_sent = True
            reply = record.message
            if (
                not record.short
                and isinstance(reply, ReplyMessage)
                and reply.call_id is not None
            ):
                # Cache the decoded reply alongside its LSN (same memory
                # profile as normal operation, where record_reply keeps
                # the reply object) so a retry never re-reads the log.
                process.last_calls.seed(
                    reply.call_id.caller_key,
                    reply.call_id,
                    context_id,
                    reply=reply,
                    reply_lsn=lsn,
                )
        # OUTGOING_CALL records (baseline only) are regenerated by replay.

    def _next_order(self) -> int:
        self._order += 1
        return self._order

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def _replay(
        self, context_id: int, pending: _Pending, final: bool
    ) -> None:
        process = self.process
        entry = process.context_table.get(context_id)
        if entry is None or entry.context_ref is None:
            raise RecoveryError(
                f"no context {context_id} registered for replay"
            )
        context = entry.context_ref
        context.enter_replay(pending.replies)
        try:
            if pending.creation is not None:
                self._replay_creation(context, pending.creation)
                reply = None
                client_type = None
                method_read_only = False
            else:
                message = pending.message
                assert message is not None
                reply = context.interceptor.invoke_for_replay(message)
                client_type = MessageInterceptor.client_type_of(message)
                from ..core.attributes import is_read_only_method

                method_read_only = is_read_only_method(
                    type(context.parent), message.method
                )
            leftovers = len(context.replay_replies)
            if leftovers:
                raise RecoveryError(
                    f"replay of context {context_id} left {leftovers} logged "
                    "replies unconsumed; the component did not re-execute "
                    "deterministically"
                )
        finally:
            if context.replaying:
                context.leave_replay()
        if final and reply is not None and not pending.reply_sent:
            # The paper's "proceeds to force log and send it": make the
            # fact of the reply durable per the active algorithm.  The
            # reply itself is never pushed (condition 5); a persistent
            # client's retry fetches it through duplicate detection.
            process.policy.on_reply_send(
                context, reply, client_type, method_read_only
            )

    def _replay_creation(
        self, context: Context, record: CreationRecord
    ) -> None:
        process = self.process
        runtime = self.runtime
        runtime.clock.advance(runtime.costs.object_creation)
        cls = runtime.registry.lookup(record.class_name)
        component = process._attach_instance(
            context, cls, record.component_lid, record.component_type
        )
        context.begin_incoming(None)
        runtime.push_context(context)
        try:
            component.__init__(
                *unswizzle_for_message(tuple(record.args), runtime)
            )
        finally:
            runtime.pop_context()
            context.end_incoming()
        context.incoming_calls_handled = 0

    def _drain_all(self) -> None:
        """Replay the remaining buffered calls — the last incoming call
        of every context — in log order."""
        while self._pending:
            context_id = min(
                self._pending, key=lambda cid: self._pending[cid].order
            )
            self.drain_context(context_id)

    def drain_context(self, context_id: int) -> None:
        """Finish a context's pending replay now.

        Called by the runtime when a live call (from another context's
        replay that went live) arrives at a context whose own replay has
        not run yet — the replay must complete first so duplicate
        detection finds the regenerated reply.
        """
        pending = self._pending.pop(context_id, None)
        if pending is not None:
            self._replay(context_id, pending, final=True)
        # The pending table is the synchronisation here: a session
        # admitted mid-recovery depends on the drain's effects without
        # ever acquiring the context, so the clock handoff must ride
        # the same state.  The drainer publishes; later callers that
        # find the context already drained inherit the drainer's clock.
        scheduler = getattr(self.runtime, "scheduler", None)
        if scheduler is not None and scheduler.active:
            entry = self.process.context_table.get(context_id)
            context = None if entry is None else entry.context_ref
            if context is not None:
                if pending is not None:
                    scheduler.publish_context(context)
                else:
                    scheduler.merge_context(context)


# ----------------------------------------------------------------------
# context-level recovery (paper Section 4.4, last paragraph)
# ----------------------------------------------------------------------
def recover_context(context: Context) -> None:
    """Recover a crashed context inside a live process."""
    from ..checkpoint.state_record import restore_context_state

    process = context.process
    runtime = context.runtime
    entry = process.context_table.get(context.context_id)
    if entry is None:
        raise RecoveryError(
            f"context {context.context_id} is not in the context table"
        )
    start = entry.recovery_start_lsn
    if start == NO_LSN:
        raise RecoveryError(
            f"context {context.context_id} has no creation or state record"
        )

    context.subordinates = {}
    context.parent = None
    context.next_outgoing_seq = 0
    context.incoming_calls_handled = 0

    pending: _Pending | None = None
    restored = False
    log = process.log_for(context.context_id)
    if entry.state_record_lsn != NO_LSN:
        record = log.read_record(entry.state_record_lsn)
        if not isinstance(record, ContextStateRecord):
            raise RecoveryError(
                f"LSN {entry.state_record_lsn} is not a state record"
            )
        runtime.clock.advance(runtime.costs.object_creation)
        restore_context_state(process, context, record)
        restored = True

    manager = RecoveryManager(process)
    # The process is live, so its last-call table is intact: only this
    # context's creation and message records are replayed.
    for lsn, record in log.scan(start, kinds=(CreationRecord, MessageRecord)):
        if record.context_id != context.context_id:
            continue
        if restored and lsn <= entry.state_record_lsn:
            continue
        if isinstance(record, CreationRecord) and not restored:
            manager._pending[context.context_id] = _Pending(
                order=manager._next_order(), creation=record
            )
        elif isinstance(record, MessageRecord):
            manager._scan_message(context.context_id, lsn, record)
    context.crashed = False
    manager.drain_context(context.context_id)
    log.force()
