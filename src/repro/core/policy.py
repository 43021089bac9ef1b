"""Logging policies — the paper's Algorithms 1 through 5.

The policy decides, for each of the four message kinds, whether to write
a log record (long or short) and whether to force the log, given the
component types on both ends of the call:

* **Algorithm 1** (baseline, Section 2.3): log then force every message.
* **Algorithm 2** (Section 3.1.1, persistent client): log receive
  messages (1 and 4) *without* forcing; write nothing for send messages
  (2 and 3) but force all previous records before they leave.
* **Algorithm 3** (Section 3.1.2, external client): force a long record
  for message 1 and a short record for message 2 — external failures
  cannot be fully masked, so log promptly and keep the window of
  vulnerability small.
* **Algorithm 4** (Section 3.2.2, functional server): nothing, on either
  side.
* **Algorithm 5** (Sections 3.2.3/3.3, read-only components & methods):
  nothing at the server; the persistent caller logs (without forcing)
  only message 4, whose value replay cannot regenerate.
* **Multi-call** (Section 3.5, extension): within one method execution,
  force only for the first outgoing call or when re-invoking a server
  already called; later servers' replies are recoverable from their own
  last-call tables.

An unknown server type uses the most conservative algorithm (Section
3.4), i.e. it is treated as persistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..analysis.trace import CrashMark, TraceEvent
from ..common.messages import (
    MessageKind,
    MethodCallMessage,
    ReplyMessage,
)
from ..common.types import ComponentType
from ..faults import plane as faultplane
from ..log.records import MessageRecord
from .config import RuntimeConfig
from .tables import NO_LSN

if TYPE_CHECKING:  # pragma: no cover
    from .context import Context


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

    @classmethod
    def nothing(cls) -> "LogDecision":
        return cls()


class _InterruptedDecision(BaseException):
    """A crash signal unwound out of a decision's force.

    The decision had already appended its record, which may have reached
    stable storage before the crash — the trace must still witness it,
    or the conformance checker would find a stable record no surviving
    decision claims.  Carries the partial decision and the original
    signal; never escapes the policy's ``on_*`` wrappers.
    """

    def __init__(self, decision: LogDecision, signal: BaseException):
        super().__init__("decision interrupted by crash signal")
        self.decision = decision
        self.signal = signal


class LoggingPolicy:
    """Chooses and executes the per-message logging actions."""

    def __init__(self, config: RuntimeConfig):
        self.config = config

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _treat_read_only(
        self, component_type: ComponentType | None, method_read_only: bool
    ) -> bool:
        """Should this peer be handled by Algorithm 5?"""
        if component_type is ComponentType.READ_ONLY:
            return True
        return bool(
            method_read_only and self.config.read_only_method_optimization
        )

    def _stateless_context(self, context: "Context") -> bool:
        """Algorithms 4 and 5: functional and read-only components log
        nothing themselves — they are stateless and never recovered.
        (Only meaningful in the optimized system; the baseline predates
        component types and logs everything.)"""
        return (
            self.config.optimized_logging
            and context.component_type.is_stateless
        )

    @staticmethod
    def _append(
        context: "Context",
        kind: MessageKind,
        message: MethodCallMessage | ReplyMessage | None,
        short: bool = False,
    ) -> int:
        record = MessageRecord(
            context_id=context.context_id,
            kind=kind,
            message=None if short else message,
            short=short,
        )
        return context.process.log_append(record)

    def _commit_point(self, context: "Context") -> int:
        """The LSN a committing send must make stable before leaving.

        The paper's Algorithm 2 uses the whole-log ``end_lsn`` ("force
        all previous messages") — a global ordering point.  With
        ``config.pipelined_commit`` on and the deterministic scheduler
        active, the commit point relaxes to the sending session's
        *causal* watermark: the highest LSN in its happens-before cone.
        TRC107 recomputes that cone independently from the trace's
        vector clocks, so an under-computed watermark here cannot pass
        unnoticed.  With the flag off this is exactly ``end_lsn`` — of
        the context's own log stream, which under sharded logging is
        the only stream the send's causal target can live on."""
        process = context.process
        log = self._log(context)
        if self.config.pipelined_commit:
            runtime = getattr(process, "runtime", None)
            scheduler = getattr(runtime, "scheduler", None)
            if scheduler is not None and scheduler.active:
                target = scheduler.causal_commit_lsn(process, log=log)
                if target is not None:
                    return target
        return log.end_lsn

    @staticmethod
    def _log(context: "Context"):
        """The log stream the context's records route to (the legacy
        ``process.log`` outside sharded logging)."""
        log_for = getattr(context.process, "log_for", None)
        if log_for is None:
            return context.process.log
        return log_for(context.context_id)

    @staticmethod
    def _force_for(context: "Context", decision: LogDecision) -> None:
        """Force the log on behalf of a decision that already appended
        its record, converting a crash out of the force into
        :class:`_InterruptedDecision` so the appended record is still
        traced."""
        try:
            context.process.log_force(
                commit_lsn=decision.commit_lsn,
                context_id=context.context_id,
            )
        except BaseException as signal:
            raise _InterruptedDecision(decision, signal) from None

    def _trace_interrupted(
        self,
        context: "Context",
        kind: MessageKind,
        peer_type: ComponentType | None,
        method_read_only: bool,
        exc: _InterruptedDecision,
        method: str | None = None,
    ) -> None:
        """Witness an interrupted decision's appended record — but only
        when the record can still exist.

        A *stale* signal is a ghost unwind: the crash already happened
        in another session and the process's :class:`CrashMark` is
        already on the trace, so this event would be appended BEHIND the
        mark and escape its volatile-record pruning.  The record's fate
        is already sealed by that mark: at/above its ``stable_lsn`` the
        record was wiped (and its LSN will be reused) — tracing it would
        claim a future record; below it the record is durable and still
        needs a claiming decision (e.g. a group-commit rider whose batch
        executed just before the crash)."""
        decision = exc.decision
        if getattr(exc.signal, "stale", False):
            trace = self._trace_journal(context)
            mark = None
            if trace is not None:
                for entry in reversed(trace.entries):
                    if isinstance(entry, CrashMark):
                        mark = entry
                        break
            if (
                mark is None
                or decision.record_lsn == NO_LSN
                or decision.record_lsn >= mark.stable_lsn
            ):
                return
        self._trace(
            context, kind, peer_type, method_read_only, decision,
            interrupted=True, method=method,
        )

    def _trace(
        self,
        context: "Context",
        kind: MessageKind,
        peer_type: ComponentType | None,
        method_read_only: bool,
        decision: LogDecision,
        multicall_skip: bool = False,
        interrupted: bool = False,
        method: str | None = None,
    ) -> LogDecision:
        """Journal the decision on the context's stream's protocol
        trace (pure observation: the conformance checker replays these
        against the stable stream; see ``repro.analysis``)."""
        trace = self._trace_journal(context)
        if trace is not None:
            log = self._log(context)
            scheduler = getattr(context.process.runtime, "scheduler", None)
            session: int | None = None
            vc: tuple[int, ...] | None = None
            if scheduler is not None and scheduler.active:
                session = scheduler.current_session_id()
                vc = scheduler.current_vc()
            trace.record(TraceEvent(
                kind=kind,
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
                session=session,
                commit_lsn=decision.commit_lsn,
                vc=vc,
                replaying=context.replaying,
            ))
        return decision

    @staticmethod
    def _trace_journal(context: "Context"):
        """The protocol trace paired with the context's log stream."""
        stream_for = getattr(context.process, "stream_for", None)
        if stream_for is None:
            return getattr(context.process, "protocol_trace", None)
        return stream_for(context.context_id).trace

    # ------------------------------------------------------------------
    # message 1: incoming method call (server side)
    # ------------------------------------------------------------------
    def on_incoming_call(
        self,
        context: "Context",
        message: MethodCallMessage,
        client_type: ComponentType,
        method_read_only: bool,
    ) -> LogDecision:
        try:
            decision = self._incoming_call(
                context, message, client_type, method_read_only
            )
        except _InterruptedDecision as exc:
            self._trace_interrupted(
                context, MessageKind.INCOMING_CALL, client_type,
                method_read_only, exc, method=message.method,
            )
            raise exc.signal from None
        return self._trace(
            context, MessageKind.INCOMING_CALL, client_type,
            method_read_only, decision, method=message.method,
        )

    def _incoming_call(
        self,
        context: "Context",
        message: MethodCallMessage,
        client_type: ComponentType,
        method_read_only: bool,
    ) -> LogDecision:
        if not self.config.optimized_logging:
            # Algorithm 1: log message 1, force.
            lsn = self._append(context, MessageKind.INCOMING_CALL, message)
            decision = LogDecision(
                wrote_record=True, forced=True, record_lsn=lsn,
                commit_lsn=self._commit_point(context),
            )
            self._force_for(context, decision)
            return decision
        if self._stateless_context(context):
            return LogDecision.nothing()  # Algorithms 4/5: stateless server
        if self._treat_read_only(client_type, method_read_only):
            return LogDecision.nothing()  # Algorithm 5
        if client_type is ComponentType.EXTERNAL:
            # Algorithm 3: long record, force all messages.
            lsn = self._append(context, MessageKind.INCOMING_CALL, message)
            decision = LogDecision(
                wrote_record=True, forced=True, record_lsn=lsn,
                commit_lsn=self._commit_point(context),
            )
            self._force_for(context, decision)
            return decision
        # Algorithm 2: log without forcing.
        lsn = self._append(context, MessageKind.INCOMING_CALL, message)
        return LogDecision(wrote_record=True, record_lsn=lsn)

    # ------------------------------------------------------------------
    # message 2: reply to the incoming call (server side)
    # ------------------------------------------------------------------
    def on_reply_send(
        self,
        context: "Context",
        reply: ReplyMessage,
        client_type: ComponentType,
        method_read_only: bool,
    ) -> LogDecision:
        try:
            decision = self._reply_send(
                context, reply, client_type, method_read_only
            )
        except _InterruptedDecision as exc:
            self._trace_interrupted(
                context, MessageKind.REPLY_TO_INCOMING, client_type,
                method_read_only, exc,
            )
            raise exc.signal from None
        return self._trace(
            context, MessageKind.REPLY_TO_INCOMING, client_type,
            method_read_only, decision,
        )

    def _reply_send(
        self,
        context: "Context",
        reply: ReplyMessage,
        client_type: ComponentType,
        method_read_only: bool,
    ) -> LogDecision:
        if not self.config.optimized_logging:
            lsn = self._append(context, MessageKind.REPLY_TO_INCOMING, reply)
            decision = LogDecision(
                wrote_record=True, forced=True, record_lsn=lsn,
                commit_lsn=self._commit_point(context),
            )
            self._force_for(context, decision)
            return decision
        if self._stateless_context(context):
            return LogDecision.nothing()  # Algorithms 4/5: stateless server
        if self._treat_read_only(client_type, method_read_only):
            return LogDecision.nothing()  # Algorithm 5
        if client_type is ComponentType.EXTERNAL:
            # Algorithm 3: short record (identity only), force.  A crash
            # in this window — message 1 forced, message 2 not yet — is
            # the paper's window of vulnerability for external clients.
            name = context.process.name
            faultplane.site_hit(f"alg3.pre_reply:{name}", name)
            lsn = self._append(
                context, MessageKind.REPLY_TO_INCOMING, reply, short=True
            )
            decision = LogDecision(
                wrote_record=True, forced=True, short=True, record_lsn=lsn,
                commit_lsn=self._commit_point(context),
            )
            self._force_for(context, decision)
            return decision
        # Algorithm 2: no record — the reply is re-creatable by replay —
        # but everything before the send (its causal prefix, under
        # pipelined commit) must be stable.
        commit = self._commit_point(context)
        forced = context.process.log_force(
            commit_lsn=commit, context_id=context.context_id
        )
        return LogDecision(forced=forced, commit_lsn=commit)

    # ------------------------------------------------------------------
    # message 3: outgoing method call (client side)
    # ------------------------------------------------------------------
    def on_outgoing_call(
        self,
        context: "Context",
        message: MethodCallMessage,
        server_type: ComponentType | None,
        method_read_only: bool,
    ) -> LogDecision:
        try:
            decision, multicall_skip = self._outgoing_call(
                context, message, server_type, method_read_only
            )
        except _InterruptedDecision as exc:
            self._trace_interrupted(
                context, MessageKind.OUTGOING_CALL, server_type,
                method_read_only, exc, method=message.method,
            )
            raise exc.signal from None
        return self._trace(
            context, MessageKind.OUTGOING_CALL, server_type,
            method_read_only, decision, multicall_skip=multicall_skip,
            method=message.method,
        )

    def _outgoing_call(
        self,
        context: "Context",
        message: MethodCallMessage,
        server_type: ComponentType | None,
        method_read_only: bool,
    ) -> tuple[LogDecision, bool]:
        if not self.config.optimized_logging:
            lsn = self._append(context, MessageKind.OUTGOING_CALL, message)
            decision = LogDecision(
                wrote_record=True, forced=True, record_lsn=lsn,
                commit_lsn=self._commit_point(context),
            )
            self._force_for(context, decision)
            return decision, False
        if self._stateless_context(context):
            return LogDecision.nothing(), False  # stateless caller
        if server_type is ComponentType.FUNCTIONAL:
            return LogDecision.nothing(), False  # Algorithm 4
        if self._treat_read_only(server_type, method_read_only):
            # Algorithm 5: a call to a read-only target commits nothing.
            return LogDecision.nothing(), False
        # Persistent or unknown server: the send commits our state.
        current = (
            context.current_call
            if self.config.multicall_optimization
            else None
        )
        if current is not None:
            # The last-call table is per *process* and keeps one
            # entry per caller, so a second call into an
            # already-visited process evicts the earlier call's
            # stored reply — the skip is only sound for the first
            # call into each server process (Section 3.5's "server"
            # is the process, not the component).
            server = message.target_uri.rsplit("/", 1)[0]
            repeat = server in current.servers_called
            first = not current.forced_once
            current.servers_called.add(server)
            if (
                not first
                and not repeat
                and self._log(context).stable_lsn
                >= current.forced_watermark
            ):
                # Section 3.5: the server's last-call table holds the
                # reply persistently; no force needed here.  Guarded by
                # the watermark: the skip is only sound when *this
                # call's* earlier force actually reached stable storage
                # — under concurrent sessions another call's unforced
                # appends sit between our force and the end of log, and
                # they must not stand in for it.
                return LogDecision.nothing(), True
            current.forced_once = True
        commit = self._commit_point(context)
        forced = context.process.log_force(
            commit_lsn=commit, context_id=context.context_id
        )
        if current is not None:
            current.forced_watermark = max(current.forced_watermark, commit)
        return LogDecision(forced=forced, commit_lsn=commit), False

    # ------------------------------------------------------------------
    # message 4: reply from the outgoing call (client side)
    # ------------------------------------------------------------------
    def on_reply_from_outgoing(
        self,
        context: "Context",
        reply: ReplyMessage,
        server_type: ComponentType | None,
        method_read_only: bool,
    ) -> LogDecision:
        try:
            decision = self._reply_from_outgoing(
                context, reply, server_type, method_read_only
            )
        except _InterruptedDecision as exc:
            self._trace_interrupted(
                context, MessageKind.REPLY_FROM_OUTGOING, server_type,
                method_read_only, exc,
            )
            raise exc.signal from None
        return self._trace(
            context, MessageKind.REPLY_FROM_OUTGOING, server_type,
            method_read_only, decision,
        )

    def _reply_from_outgoing(
        self,
        context: "Context",
        reply: ReplyMessage,
        server_type: ComponentType | None,
        method_read_only: bool,
    ) -> LogDecision:
        if not self.config.optimized_logging:
            lsn = self._append(
                context, MessageKind.REPLY_FROM_OUTGOING, reply
            )
            decision = LogDecision(
                wrote_record=True, forced=True, record_lsn=lsn,
                commit_lsn=self._commit_point(context),
            )
            self._force_for(context, decision)
            return decision
        if self._stateless_context(context):
            return LogDecision.nothing()  # stateless caller logs nothing
        if server_type is ComponentType.FUNCTIONAL:
            return LogDecision.nothing()  # Algorithm 4: pure, re-creatable
        # Algorithms 2 and 5: log without forcing.  Read-only replies are
        # unrepeatable; persistent replies remove receive nondeterminism.
        lsn = self._append(context, MessageKind.REPLY_FROM_OUTGOING, reply)
        return LogDecision(wrote_record=True, record_lsn=lsn)
