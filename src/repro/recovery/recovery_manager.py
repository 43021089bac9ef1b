"""Recovery (paper Section 4.4 and Figure 5).

Process-crash recovery is an analysis pass followed by one redo:

* **Analysis** folds each stream (``log/inspect.py::fold``, only the
  kinds it consumes) from the LSN in the well-known file (the last
  flushed process checkpoint), or from the beginning of the log.  It
  finds every context that existed at the crash, the latest
  state-record LSN (or creation LSN) of each, and seeds the global
  tables from the checkpoint's table records.  Contexts with state
  records are restored right after this pass (ordinary fields applied,
  component references resolved); every other context gets its shell.

* **Redo** replays each context's *frame chain* — the ordered LSNs of
  its records past the restored state, grouped from the frame index the
  tail repair rebuilt (``LogManager.component_chains``) — through one
  table, :class:`~.incremental.PendingRecovery`.  A chain
  is read call by call: each incoming call is replayed with its outgoing
  calls answered from the logged replies; the last one is replayed
  final, and if a reply to one of its outgoing calls is missing from the
  log the call is not suppressed and normal execution begins (the log
  has run dry).  Replay regenerates the last-call table; its replies are
  never sent (condition 5) — the caller's retry fetches them via
  duplicate detection.

Eager recovery redoes the way the paper does, in one log-order pass: the
table merges the chains into one LSN-ordered read and hands each record
to its context's buffer here (:meth:`RecoveryManager.replay_record`),
then replays each context's last call final, in context-id order.  A
final call that goes live into a context whose last call is still
buffered finishes that context first (the table's admission rule).
What differs between schedules is only *when* and *in what order* the
table is drained: eager recovery drains it before the process leaves
RECOVERING, sharded recovery runs one ``PendingRecovery.drain`` per
stream (a clock lane, or a session under the scheduler), and on-demand
recovery admits calls first and leaves the rest to lazy replay and
background drains.

Context-crash recovery (:func:`recover_context`) is the same redo over
one context: its restored state record, then its chain as one more mark
in the pending table (an on-demand restart's, while one is published).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from ..common.messages import MessageKind, MethodCallMessage, ReplyMessage
from ..core.attributes import is_read_only_method
from ..core.context import Context
from ..core.interceptor import MessageInterceptor
from ..core.swizzle import unswizzle_for_message
from ..core.tables import ContextTableEntry, NO_LSN
from ..errors import RecoveryError
from ..faults import plane as faultplane
from ..log.inspect import ContextFacts, LogFacts, fold
from ..log.records import (
    CheckpointContextTableRecord,
    CheckpointLastCallRecord,
    CheckpointRemoteTypeRecord,
    ContextStateRecord,
    CreationRecord,
    LastCallReplyRecord,
    LogRecord,
    MessageRecord,
)
from .incremental import DRAIN_WORKERS, PendingRecovery

if TYPE_CHECKING:  # pragma: no cover
    from ..core.process import AppProcess

# What the analysis pass consumes (Section 4.4).  Its scan asks the log
# for these kinds only; every other frame is skipped through the log's
# kind index without being decoded.  Redo reads creation, last-call
# reply and message records through the chains; begin/end checkpoint
# records are read by neither.
_PASS_ONE_KINDS = (
    CreationRecord,
    ContextStateRecord,
    CheckpointContextTableRecord,
    CheckpointRemoteTypeRecord,
    CheckpointLastCallRecord,
)


@dataclass
class _Pending:
    """A buffered call awaiting replay (Figure 5)."""

    creation: CreationRecord | None = None
    message: MethodCallMessage | None = None
    replies: list[ReplyMessage] = field(default_factory=list)
    reply_sent: bool = False


class RecoveryManager:
    """Recovers one crashed process."""

    def __init__(self, process: "AppProcess"):
        self.process = process
        self.runtime = process.runtime
        #: Each context's buffered call, not yet replayed (Figure 5).
        self.buffers: dict[int, _Pending] = {}
        # Per-stream reply watermarks (pass 1's scan starts).  Reply
        # records at or below a stream's watermark are already covered
        # by the checkpoint's last-call table record, so redo rebuilds
        # the reply cache only from the suffix past it — on
        # recover-twice (crash during recovery) the whole-tail re-decode
        # is gone.  Stream 0's watermark is the published checkpoint
        # LSN; extra streams default to NO_LSN (their scans start at
        # their own truncation point, so re-seeding is already bounded).
        self.reply_watermarks: dict[int, int] = {}

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
        # Pass-boundary crash sites: a second crash while recovery itself
        # is running must leave a log from which a fresh recovery still
        # reaches the same state (crash-during-recovery cascades).
        faultplane.site_hit(f"recovery.start:{name}", name)

        discoveries = self._pass_one()
        faultplane.site_hit(f"recovery.pass1:{name}", name)
        self._restore_saved_contexts(discoveries)
        faultplane.site_hit(f"recovery.restored:{name}", name)
        # Every other context gets its shell now, so lookups resolve and
        # log truncation keeps protecting its chain; the table then owns
        # the replay of every chain, whichever schedule drains it.
        for info in sorted(discoveries.values(), key=lambda d: d.context_id):
            if info.state is None:
                self._register_context(info)
        pending = PendingRecovery(self, discoveries)
        if pending.pending_count():
            # Published before the first replay, whichever schedule
            # drains it: a replay that goes live into a context not yet
            # replayed replays that chain first.
            process.incarnation.pending_recovery = pending
        in_session = runtime.scheduler.current_session() is not None
        if process.config.on_demand_recovery:
            # Analysis is done: admit new calls now and replay each
            # component lazily / in background drains (incremental.py).
            faultplane.site_hit(f"recovery.admit_early:{name}", name)
            if in_session:
                drains = min(DRAIN_WORKERS, pending.pending_count())
                pending.spawn_drains([(None, sorted(pending.marks))] * drains)
        else:
            faultplane.site_hit(f"recovery.pass2:{name}", name)
            # Sharded eager recovery replays each stream's shard as an
            # independent drain (parallel sessions under the scheduler,
            # clock lanes in the serial runtime), so recovery time
            # scales with the largest shard instead of the whole log.
            sharded = len(process.streams) > 1
            if sharded and in_session:
                pending.spawn_drains(pending.stream_groups())
            else:
                if sharded:
                    runtime.clock.run_lanes(
                        partial(pending.drain, members, label)
                        for label, members in pending.stream_groups()
                    )
                else:
                    pending.drain_all()
                faultplane.site_hit(f"recovery.drained:{name}", name)
                # Make everything recovery produced (including effects
                # of live-continued calls) stable before declaring the
                # process recovered.
                for stream in process.streams:
                    stream.log.force()
                faultplane.site_hit(f"recovery.done:{name}", name)
        incarnation = process.incarnation
        if incarnation.context_table:
            incarnation.next_component_lid = max(incarnation.context_table) + 1

    # ------------------------------------------------------------------
    # pass 1
    # ------------------------------------------------------------------
    def _pass_one(self) -> dict[int, ContextFacts]:
        process = self.process
        facts = LogFacts(process.name)
        for index, stream in enumerate(process.streams):
            log = stream.log
            published = log.read_well_known_lsn()
            if index == 0:
                # Stream 0's well-known LSN is the published checkpoint;
                # extra streams publish their truncation point instead
                # (the scan anchor), which covers no last-call entries.
                self.reply_watermarks[0] = (
                    NO_LSN if published is None else published
                )
            fold(log, published or 0, _PASS_ONE_KINDS, facts, index)
        for bracket in facts.checkpoints:
            for uri, component_type in bracket.remote_types:
                process.incarnation.remote_types.seed(uri, component_type)
            for entry in bracket.last_calls:
                process.incarnation.last_calls.seed(
                    entry.caller_key,
                    entry.call_id,
                    NO_LSN,
                    reply_lsn=entry.reply_lsn,
                )
        # The crash wiped the in-memory routing table; the discoveries
        # rebuild it — every context maps back to the stream its records
        # were found on, so replay appends route exactly as the original
        # run did.
        for info in facts.contexts.values():
            process.assign_stream(info.context_id, info.stream)
        self._materialize_pointers(facts.contexts)
        return facts.contexts

    def _materialize_pointers(
        self, discoveries: dict[int, ContextFacts]
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
            if info.state_lsn != NO_LSN and info.state is None:
                info.state = self._read_pointer(
                    info, info.state_lsn, ContextStateRecord
                )
            if info.creation is None and info.state is None:
                if info.creation_lsn == NO_LSN:
                    raise self._error(
                        info, "neither a creation record nor a state "
                        "record on the log"
                    )
                info.creation = self._read_pointer(
                    info, info.creation_lsn, CreationRecord
                )

    def _read_pointer(self, info: ContextFacts, lsn: int, kind: type):
        """The record at table pointer ``lsn``; it must be a ``kind``."""
        record = self.process.streams[info.stream].log.read_record(lsn)
        if not isinstance(record, kind):
            raise self._error(info, f"LSN {lsn} is not a {kind.__name__}")
        return record

    def _error(self, info: ContextFacts, problem: str) -> RecoveryError:
        """``problem`` with the process, the stream and the context."""
        stream = self.process.streams[info.stream].name
        return RecoveryError(
            f"process {self.process.name!r}, stream {stream!r}, "
            f"context {info.context_id}: {problem}"
        )

    # ------------------------------------------------------------------
    # restore contexts that have state records
    # ------------------------------------------------------------------
    def _restore_saved_contexts(
        self, discoveries: dict[int, ContextFacts]
    ) -> None:
        for info in sorted(discoveries.values(), key=lambda d: d.context_id):
            if info.state is not None:
                self._restore(self._register_context(info), info.state)

    def _restore(self, context: Context, state: ContextStateRecord) -> None:
        """Rebuild ``context`` from its latest state record."""
        from ..checkpoint.state_record import restore_context_state

        # Reading the creation record, creating the object shell and
        # registering it costs the same as the creation path; the
        # state restore is charged inside restore_context_state.
        self.runtime.clock.advance(self.runtime.costs.object_creation)
        restore_context_state(self.process, context, state)

    def _register_context(self, info: ContextFacts) -> Context:
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
        process.incarnation.context_table[info.context_id] = ContextTableEntry(
            context_id=info.context_id,
            uri=uri,
            state_record_lsn=info.state_lsn,
            creation_lsn=info.creation_lsn,
            context_ref=context,
        )
        return context

    # ------------------------------------------------------------------
    # redo: one record of a frame chain
    # ------------------------------------------------------------------
    def replay_record(
        self, lsn: int, record: LogRecord, restored: bool, reply_floor: int
    ) -> None:
        """Hand one record of a redo chain to its context's buffer: an
        incoming call replays the call buffered before it (Figure 5)."""
        if isinstance(record, MessageRecord):
            self._scan_message(record.context_id, lsn, record)
        elif isinstance(record, CreationRecord):
            if not restored:
                self.buffers[record.context_id] = _Pending(creation=record)
        elif isinstance(record, LastCallReplyRecord):
            if reply_floor != NO_LSN and lsn <= reply_floor:
                # Below the floor the checkpoint's own last-call record
                # (pass 1) or a state-record restore already installed
                # this entry with its reply LSN; a duplicate-detection
                # hit reads the reply lazily.
                return
            # The record was just decoded; caching the reply object now
            # means a later duplicate-detection hit resolves from memory
            # instead of re-reading the log.
            self.process.incarnation.last_calls.seed(
                record.caller_key,
                record.call_id,
                record.context_id,
                reply=record.reply,
                reply_lsn=lsn,
            )

    def _scan_message(
        self, context_id: int, lsn: int, record: MessageRecord
    ) -> None:
        process = self.process
        if record.kind is MessageKind.INCOMING_CALL:
            message = record.message
            assert isinstance(message, MethodCallMessage)
            pending = self.buffers.get(context_id)
            if pending is not None:
                del self.buffers[context_id]
                self._replay(context_id, pending, final=False)
            self.buffers[context_id] = _Pending(message=message)
            if message.call_id is not None:
                client_type = MessageInterceptor.client_type_of(message)
                if client_type.is_persistent_family:
                    process.incarnation.last_calls.seed(
                        message.call_id.caller_key,
                        message.call_id,
                        context_id,
                    )
        elif record.kind is MessageKind.REPLY_FROM_OUTGOING:
            pending = self.buffers.get(context_id)
            if pending is None:
                # A reply whose incoming call predates this context's
                # replay window (restored state covers it).
                return
            assert isinstance(record.message, ReplyMessage)
            pending.replies.append(record.message)
        elif record.kind is MessageKind.REPLY_TO_INCOMING:
            pending = self.buffers.get(context_id)
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
                process.incarnation.last_calls.seed(
                    reply.call_id.caller_key,
                    reply.call_id,
                    context_id,
                    reply=reply,
                    reply_lsn=lsn,
                )
        # OUTGOING_CALL records (baseline only) are regenerated by replay.

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def _replay(
        self, context_id: int, pending: _Pending, final: bool
    ) -> None:
        process = self.process
        entry = process.incarnation.context_table.get(context_id)
        if entry is None:
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

    def drain_context(self, context_id: int) -> None:
        """Finish a context's pending replay: its last buffered call (or
        its creation), replayed final."""
        pending = self.buffers.pop(context_id, None)
        if pending is not None:
            self._replay(context_id, pending, final=True)
        # The pending table is the synchronisation here: a session
        # admitted mid-recovery depends on the drain's effects without
        # ever acquiring the context, so the clock handoff must ride
        # the same state.  The drainer publishes; later callers that
        # find the context already drained inherit the drainer's clock.
        entry = self.process.incarnation.context_table.get(context_id)
        context = None if entry is None else entry.context_ref
        if context is not None:
            scheduler = self.runtime.scheduler
            if pending is not None:
                scheduler.publish_context(context)
            else:
                scheduler.merge_context(context)


# ----------------------------------------------------------------------
# context-level recovery (paper Section 4.4, last paragraph)
# ----------------------------------------------------------------------
def recover_context(context: Context) -> None:
    """Recover a crashed context inside a live process: restore its
    state record, then replay its frame chain as one more mark in the
    pending table."""
    process = context.process
    context_id = context.context_id
    manager = RecoveryManager(process)
    info = ContextFacts(context_id, process.stream_index(context_id))
    entry = process.incarnation.context_table.get(context_id)
    if entry is None or entry.recovery_start_lsn == NO_LSN:
        raise manager._error(info, "no creation or state record in its table")
    info.creation_lsn = entry.creation_lsn
    info.state_lsn = entry.state_record_lsn
    if info.state_lsn != NO_LSN:
        info.state = manager._read_pointer(
            info, info.state_lsn, ContextStateRecord
        )
        manager._restore(context, info.state)
    # The process is live, so its last-call table is intact: every reply
    # record sits below the floor (the end of the log).
    manager.reply_watermarks[info.stream] = process.log_for(context_id).end_lsn
    fresh = PendingRecovery(manager, {context_id: info})
    context.crashed = False
    if fresh.component_recovered(context_id):
        return  # nothing past the state record: the restore recovered it
    table = process.incarnation.pending_recovery
    if table is None:
        table = process.incarnation.pending_recovery = fresh
    else:
        # An on-demand restart is still draining: the mark joins its
        # table, which detaches itself once every mark is recovered.
        table.marks[context_id] = fresh.marks[context_id]
    table.ensure_component(context_id)
