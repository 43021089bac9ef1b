"""Logging policy — the executor of the message-action table.

Which record a message gets and whether it commits is decided by
:mod:`repro.common.message_actions` (the paper's Algorithms 1 through 5,
written once); this module *executes* that decision against the
context's log stream and journals it on the protocol trace.  The one
stateful rule lives here:

* **Multi-call** (Section 3.5, extension): within one method execution,
  force only for the first outgoing call or when re-invoking a server
  already called; later servers' replies are recoverable from their own
  last-call tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..analysis.trace import CrashMark, TraceEvent
from ..common.message_actions import (
    MESSAGES,
    MSG1,
    MSG2,
    MSG3,
    MSG4,
    NO_RECORD,
    SHORT,
    action_for,
)
from ..common.messages import MethodCallMessage, ReplyMessage
from ..common.types import ComponentType
from ..errors import CrashSignal
from ..faults import plane as faultplane
from ..log.records import MessageRecord
from .config import RuntimeConfig
from .tables import NO_LSN

if TYPE_CHECKING:  # pragma: no cover
    from .context import Context, CurrentCall


@dataclass(frozen=True)
class LogDecision:
    """What the policy did for one message (tests and stats read this)."""

    wrote_record: bool = False
    forced: bool = False
    short: bool = False
    record_lsn: int = NO_LSN
    #: The end-LSN the force was asked to make stable (captured *before*
    #: the force).  Under group commit a rider's force may also persist
    #: another session's later appends, so the conformance checker must
    #: compare stability against this, not the post-force end of log.
    commit_lsn: int | None = None


class LoggingPolicy:
    """Executes the per-message logging actions.

    The four ``on_*`` entries name their table row statically;
    everything after that is one path.
    """

    def __init__(self, config: RuntimeConfig):
        self.config = config

    def on_incoming_call(
        self,
        context: "Context",
        message: MethodCallMessage,
        client_type: ComponentType,
        method_read_only: bool,
    ) -> LogDecision:
        """Message 1: incoming method call (server side)."""
        return self._handle(
            MSG1, context, message, client_type, method_read_only,
            message.method,
        )

    def on_reply_send(
        self,
        context: "Context",
        reply: ReplyMessage,
        client_type: ComponentType,
        method_read_only: bool,
    ) -> LogDecision:
        """Message 2: reply to the incoming call (server side)."""
        return self._handle(
            MSG2, context, reply, client_type, method_read_only
        )

    def on_outgoing_call(
        self,
        context: "Context",
        message: MethodCallMessage,
        server_type: ComponentType | None,
        method_read_only: bool,
    ) -> LogDecision:
        """Message 3: outgoing method call (client side)."""
        return self._handle(
            MSG3, context, message, server_type, method_read_only,
            message.method,
        )

    def on_reply_from_outgoing(
        self,
        context: "Context",
        reply: ReplyMessage,
        server_type: ComponentType | None,
        method_read_only: bool,
    ) -> LogDecision:
        """Message 4: reply from the outgoing call (client side)."""
        return self._handle(
            MSG4, context, reply, server_type, method_read_only
        )

    # ------------------------------------------------------------------
    # decide -> execute -> trace
    # ------------------------------------------------------------------
    def _handle(
        self,
        row: int,
        context: "Context",
        message: MethodCallMessage | ReplyMessage,
        peer_type: ComponentType | None,
        method_read_only: bool,
        method: str | None = None,
    ) -> LogDecision:
        config = self.config
        process = context.process
        context_id = context.context_id
        stream = process.stream_for(context_id)
        log = stream.log
        action = action_for(
            row, config.optimized_logging,
            config.read_only_method_optimization,
            context.component_type, peer_type, method_read_only,
        )
        commits = action.commits
        current = None
        if (
            commits
            and row == MSG3
            and action.record == NO_RECORD
            and config.multicall_optimization
        ):
            current = context.current_call
            if current is not None:
                commits = not self._multicall_skip(current, message, log)

        wrote = action.record != NO_RECORD
        short = action.record == SHORT
        lsn = NO_LSN
        if wrote:
            if short:
                # Algorithm 3's message 2.  A crash in this window —
                # message 1 forced, message 2 not yet — is the paper's
                # window of vulnerability for external clients.
                name = process.name
                faultplane.site_hit(f"alg3.pre_reply:{name}", name)
            lsn = process.log_append(MessageRecord(
                context_id=context_id,
                kind=MESSAGES[row],
                message=None if short else message,
                short=short,
            ))
        commit = None
        forced = False
        if commits:
            # read AFTER the append: the commit covers the own record;
            # with no record — the message is re-creatable by replay —
            # everything before the send (its causal prefix, under
            # pipelined commit) must still be stable.  The runtime's
            # commit gate picks the point and decides the force.
            commit = process.runtime.commit.commit_point(log)
            try:
                performed = process.log_force(
                    commit_lsn=commit, context_id=context_id
                )
            except BaseException as signal:
                # A crash unwound out of the force.  An appended record
                # may have reached stable storage before it: the trace
                # must still witness the decision, or the conformance
                # checker would find a stable record no surviving
                # decision claims.
                if wrote and self._still_claimable(
                    stream.trace, lsn, signal
                ):
                    self._trace(
                        row, context, stream, peer_type, method_read_only,
                        method, LogDecision(True, True, short, lsn, commit),
                        interrupted=True,
                    )
                raise
            # forcing an own record counts as forced whoever's write
            # carried it; a record-less force reports whether it wrote
            forced = wrote or performed
            if current is not None:
                current.forced_watermark = max(
                    current.forced_watermark, commit
                )
        decision = LogDecision(wrote, forced, short, lsn, commit)
        self._trace(
            row, context, stream, peer_type, method_read_only, method,
            decision, multicall_skip=current is not None and not commits,
        )
        return decision

    @staticmethod
    def _multicall_skip(
        current: "CurrentCall", message: MethodCallMessage, log
    ) -> bool:
        """Section 3.5: may this committing outgoing call skip its force?

        The last-call table is per *process* and keeps one entry per
        caller, so a second call into an already-visited process evicts
        the earlier call's stored reply — the skip is only sound for the
        first call into each server process (Section 3.5's "server" is
        the process, not the component)."""
        server = message.target_uri.rsplit("/", 1)[0]
        repeat = server in current.servers_called
        first = not current.forced_once
        current.servers_called.add(server)
        if (
            not first
            and not repeat
            and log.stable_lsn >= current.forced_watermark
        ):
            # The server's last-call table holds the reply persistently;
            # no force needed here.  Guarded by the watermark: the skip
            # is only sound when *this call's* earlier force actually
            # reached stable storage — under concurrent sessions another
            # call's unforced appends sit between our force and the end
            # of log, and they must not stand in for it.
            return True
        current.forced_once = True
        return False

    @staticmethod
    def _still_claimable(
        trace, record_lsn: int, signal: BaseException
    ) -> bool:
        """Can an interrupted decision's appended record still exist?

        Yes for any unwind but a stale :class:`CrashSignal`.  A *stale*
        signal is a ghost unwind: the crash already happened in another
        session and the process's :class:`CrashMark` is already on the
        trace, so this event would be appended BEHIND the mark and
        escape its volatile-record pruning.  The record's fate
        is already sealed by that mark: at/above its ``stable_lsn`` the
        record was wiped (and its LSN will be reused) — tracing it would
        claim a future record; below it the record is durable and still
        needs a claiming decision (e.g. a group-commit rider whose batch
        executed just before the crash)."""
        if not (isinstance(signal, CrashSignal) and signal.stale):
            return True
        for entry in reversed(trace.entries):
            if isinstance(entry, CrashMark):
                return record_lsn < entry.stable_lsn
        return False

    def _trace(
        self,
        row: int,
        context: "Context",
        stream,
        peer_type: ComponentType | None,
        method_read_only: bool,
        method: str | None,
        decision: LogDecision,
        multicall_skip: bool = False,
        interrupted: bool = False,
    ) -> None:
        """Journal the decision on the context's stream's protocol
        trace (pure observation: the conformance checker replays these
        against the stable stream; see ``repro.analysis``)."""
        scheduler = context.process.runtime.scheduler
        log = stream.log
        stream.trace.record(TraceEvent(
            kind=MESSAGES[row],
            context_id=context.context_id,
            context_type=context.component_type,
            peer_type=peer_type,
            method_read_only=method_read_only,
            optimized=self.config.optimized_logging,
            read_only_opt=self.config.read_only_method_optimization,
            multicall_skip=multicall_skip,
            wrote_record=decision.wrote_record,
            forced=decision.forced,
            short=decision.short,
            record_lsn=decision.record_lsn,
            end_lsn=log.end_lsn,
            stable_lsn=log.stable_lsn,
            interrupted=interrupted,
            method=method,
            session=scheduler.current_session_id(),
            commit_lsn=decision.commit_lsn,
            vc=scheduler.current_vc(),
            replaying=context.replaying,
        ))
