"""The last-call table (paper Sections 2.3 and 4.1).

Duplicate elimination for condition 3: method call IDs and their replies
are stored indexed by the first three parts of the globally unique ID
(machine, process LID, component LID).  Only the *last* call from each
persistent client is kept — if a client makes a new call, condition 1
says it could recover its own state past the previous call, so the
earlier entry is no longer needed.

The table is process-wide and shared among all contexts (Section 4.1),
and additionally keeps the list of entries per context, which context
state saving uses to persist the replies that replay could no longer
regenerate (Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..common.ids import GlobalCallId
from ..common.messages import ReplyMessage
from ..errors import InvariantViolationError
from .tables import NO_LSN

CallerKey = tuple[str, int, int]


@dataclass
class LastCallEntry:
    """Paper Table 1: method call globally unique ID, a pointer to the
    reply message and/or an LSN for the reply message log record."""

    call_id: GlobalCallId
    context_id: int
    reply: ReplyMessage | None = None
    reply_lsn: int = NO_LSN
    in_progress: bool = True  # reply not yet produced


class LastCallTable:
    """Process-wide duplicate-detection table."""

    def __init__(self) -> None:
        self._entries: dict[CallerKey, LastCallEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, caller_key: CallerKey) -> LastCallEntry | None:
        return self._entries.get(caller_key)

    def check_incoming(self, call_id: GlobalCallId) -> LastCallEntry | None:
        """Condition-3 check for an incoming call.

        Returns the stored entry if this exact call was seen before
        (the caller retried), ``None`` if the call is new.  A call ID
        *older* than the stored one violates the single-threaded-client
        assumption and is reported as an invariant violation.
        """
        entry = self._entries.get(call_id.caller_key)
        if entry is None:
            return None
        if call_id == entry.call_id:
            return entry
        if call_id.seq < entry.call_id.seq:
            raise InvariantViolationError(
                f"incoming call {call_id} is older than the last call "
                f"{entry.call_id} from the same client"
            )
        return None

    def abort_call(self, call_id: GlobalCallId) -> None:
        """Drop the in-progress entry of a serving frame that died
        mid-call while this process survived (a dead *caller's* crash
        signal unwound through it).  The call never produced a reply, so
        the entry can only poison the caller's retry — the replayed call
        re-arrives with the same ID and must execute as new, not trip
        the duplicate-while-executing invariant.  Completed entries are
        kept: the retry needs their stored reply."""
        entry = self._entries.get(call_id.caller_key)
        if (
            entry is not None
            and entry.call_id == call_id
            and entry.in_progress
        ):
            del self._entries[call_id.caller_key]

    def begin_call(self, call_id: GlobalCallId, context_id: int) -> LastCallEntry:
        """Record that a new last call is being executed (replaces any
        earlier entry from the same client)."""
        entry = LastCallEntry(call_id=call_id, context_id=context_id)
        self._entries[call_id.caller_key] = entry
        return entry

    def record_reply(
        self,
        call_id: GlobalCallId,
        reply: ReplyMessage,
        reply_lsn: int = NO_LSN,
    ) -> LastCallEntry:
        """Store the reply for the last call of ``call_id``'s client."""
        entry = self._entries.get(call_id.caller_key)
        if entry is None or entry.call_id != call_id:
            if entry is not None and entry.call_id.seq > call_id.seq:
                # A newer call from this caller is already tabled (e.g.
                # recovery replaying an older context's last call after a
                # state-record restore seeded the newer entry); condition
                # 3 keeps only the last call per client — never regress.
                return entry
            # Recovery can legitimately record a reply for a call whose
            # begin was never registered in this incarnation.
            entry = LastCallEntry(
                call_id=call_id,
                context_id=NO_LSN,
            )
            self._entries[call_id.caller_key] = entry
        entry.reply = reply
        if reply_lsn != NO_LSN:
            entry.reply_lsn = reply_lsn
        entry.in_progress = False
        return entry

    def seed(
        self,
        caller_key: CallerKey,
        call_id: GlobalCallId,
        context_id: int,
        reply: ReplyMessage | None = None,
        reply_lsn: int = NO_LSN,
    ) -> LastCallEntry:
        """Install an entry during recovery (from a state record, a
        checkpoint record, or a scanned incoming-call record), keeping
        the newest call per client."""
        existing = self._entries.get(caller_key)
        if existing is not None and existing.call_id.seq > call_id.seq:
            return existing
        if existing is not None and existing.call_id == call_id:
            if reply is not None:
                existing.reply = reply
                existing.in_progress = False
            if reply_lsn != NO_LSN:
                existing.reply_lsn = reply_lsn
            if context_id != NO_LSN:
                existing.context_id = context_id
            return existing
        entry = LastCallEntry(
            call_id=call_id,
            context_id=context_id,
            reply=reply,
            reply_lsn=reply_lsn,
            in_progress=reply is None and reply_lsn == NO_LSN,
        )
        self._entries[caller_key] = entry
        return entry

    def entries_for_context(self, context_id: int) -> list[LastCallEntry]:
        """All entries whose calls were served by ``context_id`` —
        Section 4.1: 'the last call table also keeps the list of last
        call entries associated with every context, which is used in
        context saving'."""
        return [
            entry
            for entry in self._entries.values()
            if entry.context_id == context_id
        ]

    def all_entries(self) -> list[tuple[CallerKey, LastCallEntry]]:
        return list(self._entries.items())
