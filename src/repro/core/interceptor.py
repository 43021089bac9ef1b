"""Message interceptors.

Paper Figure 3: an interceptor sits at each context boundary and sees
all four message kinds.  The server side handles incoming calls
(duplicate detection, logging per the active algorithm, invoking the
method, last-call bookkeeping, reply construction, optional context
state saving); the client side builds outgoing calls (deterministic call
IDs, type attachments), applies the outgoing logging algorithm, and
learns remote component types from replies.

During recovery the same interceptor runs in *replay* mode (Figure 5):
incoming calls are re-invoked from log records and outgoing calls are
suppressed, answered from the logged replies, until the log runs dry and
execution goes live.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from ..common.ids import GlobalCallId
from ..common.messages import (
    MethodCallMessage,
    ReplyMessage,
    SenderInfo,
)
from ..common.types import ComponentType
from ..errors import (
    ApplicationError,
    ConfigurationError,
    InvariantViolationError,
)
from ..log.records import LastCallReplyRecord, MessageRecord
from .attributes import is_read_only_method
from .last_call import LastCallEntry
from .swizzle import swizzle_for_message, unswizzle_for_message
from .tables import NO_LSN

if TYPE_CHECKING:  # pragma: no cover
    from .context import Context


class ReplayOutcome(enum.Enum):
    """What the replay check decided for an outgoing call."""

    SUPPRESSED = "suppressed"  # answered from the log
    EXECUTE_SILENT = "execute_silent"  # never logged (functional): re-run
    GO_LIVE = "go_live"  # log exhausted: resume normal execution


class MessageInterceptor:
    """Both halves (client and server) of one context's interceptor."""

    def __init__(self, context: "Context"):
        self.context = context

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    @property
    def _process(self):
        return self.context.process

    @property
    def _runtime(self):
        return self.context.runtime

    @property
    def _policy(self):
        return self._process.policy

    @property
    def _costs(self):
        return self._runtime.costs

    def _charge(self, cost: float) -> None:
        if cost:
            self._runtime.clock.advance(cost)

    @staticmethod
    def client_type_of(message: MethodCallMessage) -> ComponentType:
        """Infer the caller's type (paper Section 2.3: a missing ID means
        the caller is external; Section 3.4: attachments carry types)."""
        if message.sender is not None:
            return message.sender.component_type
        if message.call_id is not None:
            return ComponentType.PERSISTENT  # conservative
        return ComponentType.EXTERNAL

    # ==================================================================
    # server side
    # ==================================================================
    def handle_incoming(self, message: MethodCallMessage) -> ReplyMessage:
        """The full server-side pipeline for one incoming call."""
        context = self.context
        runtime = self._runtime
        if context.install_interceptors:
            self._charge(self._costs.interception_overhead)

        client_type = self.client_type_of(message)
        method_read_only = is_read_only_method(
            type(context.parent), message.method
        )
        # The authoritative read-only flag is the server-side attribute;
        # only persistent-family callers benefit from Algorithm 5 (an
        # external caller gets Algorithm 3 regardless).
        ro_call = method_read_only and client_type.is_persistent_family

        runtime.fire_hook("incoming.before_log", self._process, context)

        # Stateless components keep no last-call tables (Section 3.2.3),
        # and read-only calls need no duplicate detection — they change
        # no state.
        dedup = (
            context.component_type.is_persistent_family
            and message.call_id is not None
            and client_type.is_persistent_family
            and not ro_call
        )
        if dedup:
            self._charge(self._costs.dedup_check)
            last_calls = self._process.incarnation.last_calls
            entry = last_calls.check_incoming(message.call_id)
            if entry is not None:
                return self._stored_reply(entry, message)

        self._policy.on_incoming_call(
            context, message, client_type, method_read_only
        )
        runtime.fire_hook("incoming.after_log", self._process, context)

        entry = None
        if dedup:
            entry = last_calls.begin_call(
                message.call_id, context.context_id
            )
            self._charge(self._costs.last_call_update)

        reply = self._execute(message)

        if entry is not None:
            self._process.incarnation.last_calls.record_reply(
                message.call_id, reply
            )
            self._charge(self._costs.last_call_update)

        context.end_incoming()

        # Section 4.2: a state save happens after processing, before the
        # reply leaves; the reply-send force then flushes it for free.
        self._process.maybe_save_context_state(context)

        send_decision = self._policy.on_reply_send(
            context, reply, client_type, method_read_only
        )
        if entry is not None and send_decision.record_lsn != NO_LSN:
            entry.reply_lsn = send_decision.record_lsn

        runtime.fire_hook("reply.before_send", self._process, context)
        return reply

    def _execute(self, message: MethodCallMessage) -> ReplyMessage:
        """Invoke the parent component's method and build the reply."""
        context = self.context
        runtime = self._runtime
        context.begin_incoming(message)
        runtime.push_context(context)
        try:
            runtime.fire_hook("method.before", self._process, context)
            value: object = None
            failure: Exception | None = None
            try:
                bound = getattr(context.parent, message.method)
                args = unswizzle_for_message(message.args, runtime)
                kwargs = dict(unswizzle_for_message(message.kwargs, runtime))
                value = bound(*args, **kwargs)
            except ApplicationError as exc:
                failure = exc
            except Exception as exc:  # app bug, not a component failure
                failure = exc
            runtime.fire_hook("method.after", self._process, context)
            return self._build_reply(message, value, failure)
        except BaseException:
            # A crash signal (this process's or a caller further down the
            # stack) is unwinding through this serving frame.  The frame
            # is dead: restore the context's serving invariants so the
            # retried call is not mistaken for re-entrancy, and pop the
            # execution stack so the caller's next outgoing call is not
            # attributed to this crashed context.
            context.abort_incoming()
            # If this process *survives* the unwind (the signal belongs
            # to a dead caller), the call's last-call entry would stay
            # in_progress forever and the recovered caller's retry of
            # the same call ID would be rejected as a duplicate of a
            # still-executing call.  Drop it so the retry runs as new.
            # (A crash of this process drops the whole table anyway.)
            if message.call_id is not None:
                self._process.incarnation.last_calls.abort_call(
                    message.call_id
                )
            raise
        finally:
            runtime.pop_context()

    def _build_reply(
        self,
        message: MethodCallMessage,
        value: object,
        failure: Exception | None,
    ) -> ReplyMessage:
        context = self.context
        attach = self._should_attach_reply(message)
        sender = None
        if attach:
            sender = SenderInfo(
                component_type=context.component_type,
                component_uri=context.uri,
            )
            self._charge(self._costs.type_attachment_cost)
        method_read_only = is_read_only_method(
            type(context.parent), message.method
        )
        if failure is not None:
            return ReplyMessage(
                call_id=message.call_id,
                is_exception=True,
                exception_message=f"{type(failure).__name__}: {failure}",
                sender=sender,
                method_read_only=method_read_only,
            )
        return ReplyMessage(
            call_id=message.call_id,
            value=swizzle_for_message(value),
            sender=sender,
            method_read_only=method_read_only,
        )

    def _should_attach_reply(self, message: MethodCallMessage) -> bool:
        """Section 5.2.3: omit the reply attachment when the caller said
        it already knows this server."""
        if message.sender is None:
            return False  # external callers ignore attachments
        if not self._process.config.reply_attachment_omission:
            return True
        return not message.sender.knows_receiver

    def _stored_reply(
        self, entry: LastCallEntry, message: MethodCallMessage
    ) -> ReplyMessage:
        """Answer a duplicate call from the last-call table
        (condition 3)."""
        if entry.in_progress:
            raise InvariantViolationError(
                f"duplicate of {entry.call_id} arrived while the original "
                "is still executing in a single-threaded context"
            )
        reply = entry.reply
        if reply is None:
            reply = self._read_logged_reply(
                entry.reply_lsn, entry.context_id
            )
            entry.reply = reply
        return reply

    def _read_logged_reply(
        self, reply_lsn: int, context_id: int = NO_LSN
    ) -> ReplyMessage:
        if reply_lsn == NO_LSN:
            raise InvariantViolationError(
                "last-call entry has neither an in-memory reply nor a "
                "reply LSN"
            )
        # Reply records live on the serving context's stream (stream 0
        # when the entry predates stream attribution or the flag is off).
        log = self._process.log_for(
            None if context_id == NO_LSN else context_id
        )
        record = log.read_record(reply_lsn)
        if isinstance(record, LastCallReplyRecord):
            return record.reply
        if isinstance(record, MessageRecord) and isinstance(
            record.message, ReplyMessage
        ):
            return record.message
        raise InvariantViolationError(
            f"record at LSN {reply_lsn} is not a reply"
        )

    # ==================================================================
    # client side
    # ==================================================================
    def prepare_outgoing(
        self,
        target_uri: str,
        method: str,
        args: tuple,
        kwargs: dict | None = None,
    ) -> tuple[MethodCallMessage, ComponentType | None, bool]:
        """Build the outgoing call message (message 3).

        Persistent-family callers always consume a deterministic call ID
        (condition 2) — even for calls to functional or read-only
        servers — so replayed executions regenerate identical IDs
        regardless of what the (volatile) type table happened to know.
        Returns (message, known server type, known method-read-only).
        """
        context = self.context
        remote_types = self._process.incarnation.remote_types
        if (
            self._process.config.static_type_seeding
            and not remote_types.knows(target_uri)
        ):
            # Warm start: adopt the statically verified declared type
            # instead of Section 3.4's conservative first-call handling.
            seeded = self._process.runtime.static_type_for(target_uri)
            if seeded is not None:
                remote_types.seed(
                    target_uri, seeded[0], read_only_methods=seeded[1]
                )
        server_type = remote_types.known_type(target_uri)
        method_ro = remote_types.method_read_only(target_uri, method)

        if (
            context.component_type is ComponentType.FUNCTIONAL
            and server_type not in (None, ComponentType.FUNCTIONAL)
        ):
            raise ConfigurationError(
                f"functional component {context.uri} may only call "
                f"functional components, not {server_type.value} "
                f"{target_uri}"
            )

        call_id = None
        if context.component_type.is_persistent_family:
            call_id = context.allocate_call_id()

        # Type attachments belong to the optimized system (Section 3.4);
        # the baseline predates component types and sends plain messages.
        sender = None
        if self._process.config.optimized_logging:
            sender = SenderInfo(
                component_type=context.component_type,
                component_uri=context.uri,
                knows_receiver=server_type is not None,
            )
        if not context.replaying:
            if sender is not None:
                self._charge(self._costs.type_attachment_cost)
            if context.install_interceptors:
                self._charge(self._costs.interception_overhead)

        message = MethodCallMessage(
            target_uri=target_uri,
            method=method,
            args=swizzle_for_message(args),
            kwargs=swizzle_for_message(
                MethodCallMessage.pack_kwargs(kwargs or {})
            ),
            call_id=call_id,
            sender=sender,
            method_read_only=bool(method_ro),
        )
        return message, server_type, bool(method_ro)

    def on_outgoing(
        self,
        message: MethodCallMessage,
        server_type: ComponentType | None,
        method_ro: bool,
    ) -> None:
        """Client-side logging for message 3."""
        runtime = self._runtime
        runtime.fire_hook("outgoing.before_log", self._process, self.context)
        self._policy.on_outgoing_call(
            self.context, message, server_type, method_ro
        )
        runtime.fire_hook("outgoing.before_send", self._process, self.context)

    def check_replay(
        self, message: MethodCallMessage
    ) -> tuple[ReplayOutcome, ReplyMessage | None]:
        """Decide how an outgoing call behaves during replay.

        The replay queue holds this context's logged message-4 records in
        log order.  Three cases:

        * the head matches this call's ID — suppress the call and answer
          from the log;
        * the head (or an empty-but-not-exhausted queue) is *ahead* of
          this call — this call's reply was deliberately never logged
          (a functional server, Algorithm 4); re-execute it silently,
          which is safe because functional calls are pure;
        * the queue is exhausted — the log has run dry; recovery is
          complete up to the failure point and execution goes live.
        """
        context = self.context
        if message.call_id is None:
            raise InvariantViolationError(
                "replaying context issued an outgoing call without an ID"
            )
        while context.replay_replies:
            head = context.replay_replies[0]
            if head.call_id == message.call_id:
                context.replay_replies.popleft()
                self.learn_from_reply(message, head)
                return ReplayOutcome.SUPPRESSED, head
            if head.call_id is None or head.call_id.seq > message.call_id.seq:
                return ReplayOutcome.EXECUTE_SILENT, None
            # A stale buffered reply (an older suppressed call that the
            # re-execution skipped) cannot occur for deterministic
            # components; surface it rather than guessing.
            raise InvariantViolationError(
                f"replay expected reply for {message.call_id} but found "
                f"{head.call_id}; component is not replaying "
                "deterministically"
            )
        context.leave_replay()
        return ReplayOutcome.GO_LIVE, None

    def on_reply_received(
        self, message: MethodCallMessage, reply: ReplyMessage
    ) -> object:
        """Client-side handling of message 4: learn types, log per the
        algorithm, surface the value (or application error)."""
        runtime = self._runtime
        self.learn_from_reply(message, reply)
        remote_types = self._process.incarnation.remote_types
        server_type = remote_types.known_type(message.target_uri)
        method_ro = bool(
            remote_types.method_read_only(message.target_uri, message.method)
        )
        runtime.fire_hook(
            "reply_received.before_log", self._process, self.context
        )
        self._policy.on_reply_from_outgoing(
            self.context, reply, server_type, method_ro
        )
        runtime.fire_hook(
            "reply_received.after_log", self._process, self.context
        )
        return self.reply_value(reply)

    def reply_value(self, reply: ReplyMessage) -> object:
        if reply.is_exception:
            raise ApplicationError(
                reply.exception_message,
                original_type=reply.exception_message.split(":", 1)[0],
            )
        return unswizzle_for_message(reply.value, self._runtime)

    def learn_from_reply(
        self, message: MethodCallMessage, reply: ReplyMessage
    ) -> None:
        """Record what a reply teaches about the server (Section 3.4)."""
        remote_types = self._process.incarnation.remote_types
        if reply.sender is not None:
            remote_types.learn(
                message.target_uri,
                reply.sender.component_type,
                method=message.method,
                method_read_only=reply.method_read_only,
            )
        elif remote_types.knows(message.target_uri):
            known = remote_types.known_type(message.target_uri)
            remote_types.learn(
                message.target_uri,
                known,
                method=message.method,
                method_read_only=reply.method_read_only,
            )
        learned = remote_types.known_type(message.target_uri)
        if (
            self.context.component_type is ComponentType.FUNCTIONAL
            and learned is not None
            and learned is not ComponentType.FUNCTIONAL
        ):
            raise ConfigurationError(
                f"functional component {self.context.uri} called "
                f"{learned.value} component {message.target_uri}"
            )

    # ==================================================================
    # replay entry point (used by the recovery manager)
    # ==================================================================
    def invoke_for_replay(self, message: MethodCallMessage) -> ReplyMessage:
        """Re-invoke a logged incoming call (Figure 5).

        No dedup, no message-1 logging (the record being replayed *is*
        the log); last-call bookkeeping is rebuilt so a client retry
        after recovery finds its reply (conditions 3 and 5)."""
        context = self.context
        self._charge(self._costs.replay_per_call)
        client_type = self.client_type_of(message)
        method_read_only = is_read_only_method(
            type(context.parent), message.method
        )
        track = (
            message.call_id is not None
            and client_type.is_persistent_family
            and not method_read_only
        )
        entry = None
        if track:
            # Replay runs in log order per context, but the process-wide
            # table holds one entry per caller: another context's restore
            # may already have seeded a *newer* call from this caller.
            # Replaying an older call must rebuild state without
            # regressing that entry — the caller has moved past this
            # call, so only the newer reply can still be retried.
            last_calls = self._process.incarnation.last_calls
            existing = last_calls.lookup(message.call_id.caller_key)
            if existing is None or existing.call_id.seq <= message.call_id.seq:
                entry = last_calls.begin_call(
                    message.call_id, context.context_id
                )
        reply = self._execute(message)
        if entry is not None:
            self._process.incarnation.last_calls.record_reply(
                message.call_id, reply
            )
        context.end_incoming()
        return reply
