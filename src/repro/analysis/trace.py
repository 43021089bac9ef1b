"""The protocol trace: an ordered journal of logging decisions.

The stable log alone cannot witness the commit conditions — forces and
record-less sends (Algorithm 2 writes nothing for messages 2 and 3)
leave no mark in the stream.  Every log stream of a process therefore
carries a :class:`ProtocolTrace`, and the
:class:`~repro.core.policy.LoggingPolicy` appends one :class:`TraceEvent`
per message it handles, snapshotting the decision it made and the log's
``end_lsn``/``stable_lsn`` immediately after.  The trace is pure
observation: it writes nothing, forces nothing, and advances no clocks,
so force counts and simulated times are untouched.

A process crash loses the log's volatile buffer and the next
incarnation *reuses* its LSNs (see ``LogStream.reopen``);
:meth:`ProtocolTrace.note_crash` records the stable boundary at the
crash so the checker can tell which traced records were lost rather
than missing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..common.messages import MessageKind
from ..common.types import ComponentType

#: mirrors ``repro.core.tables.NO_LSN`` (kept local: analysis modules do
#: not import ``repro.core``, which imports them)
NO_LSN = -1


class TraceEvent(NamedTuple):
    """One logging decision, as the policy made it.

    Defaults describe the common case (an optimized persistent context)
    so tests can construct events tersely.  Immutable, and built as a
    tuple: the policy records about three per call, and a frozen
    dataclass would pay one ``object.__setattr__`` per field for each.
    Derive a changed copy with ``event._replace(...)``.
    """

    kind: MessageKind
    context_id: int = 1
    context_type: ComponentType = ComponentType.PERSISTENT
    #: the peer's component type: the client for messages 1/2, the
    #: server for messages 3/4 (``None`` = unknown, treated persistent)
    peer_type: ComponentType | None = None
    method_read_only: bool = False
    #: config snapshot (the expected algorithm depends on it)
    optimized: bool = True
    read_only_opt: bool = True
    #: Section 3.5: this send skipped its force under the multi-call
    #: optimization (the server's last-call table holds the reply)
    multicall_skip: bool = False
    #: the decision
    wrote_record: bool = False
    forced: bool = False
    short: bool = False
    record_lsn: int = NO_LSN
    #: log boundaries immediately after the decision executed
    end_lsn: int = 0
    stable_lsn: int = 0
    #: a crash unwound out of this decision's force: the record (if any)
    #: was appended but the message never left the process
    interrupted: bool = False
    #: the called method, for call messages (1 and 3); replies carry
    #: ``None``.  TRC106 keys its per-span force bounds on this.
    method: str | None = None
    #: the deterministic-scheduler session serving this decision
    #: (``None`` under the serial runtime); TRC106 partitions its span
    #: walk by session so interleaved calls don't look nested
    session: int | None = None
    #: the end-LSN this decision's force was asked to make stable,
    #: captured *before* forcing — under group commit the stable stream
    #: may advance past it (a rider's write carries later appends), so
    #: TRC101 checks stability against this rather than ``end_lsn``
    commit_lsn: int | None = None
    #: the serving session's vector clock at the decision, frozen as a
    #: dense tuple of ticks indexed by session number, zero = nothing
    #: observed (``None`` under the serial runtime); TRC107/TRC108
    #: derive happens-before from it
    vc: tuple[int, ...] | None = None
    #: the decision happened while the context was replaying logged
    #: calls during recovery — a reconstruction of pre-crash history,
    #: exempt from the causal invariants (the CrashMark already
    #: separates the incarnations)
    replaying: bool = False


@dataclass(frozen=True)
class CrashMark:
    """The process crashed; volatile records at/above ``stable_lsn``
    were lost and their LSNs will be reused."""

    stable_lsn: int


class ProtocolTrace:
    """Ordered journal of :class:`TraceEvent` and :class:`CrashMark`."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: list[TraceEvent | CrashMark] = []

    def record(self, event: TraceEvent) -> None:
        self.entries.append(event)

    def note_crash(self, stable_lsn: int) -> None:
        self.entries.append(CrashMark(stable_lsn))

    def events(self) -> list[TraceEvent]:
        """All events, in decision order (crash marks elided)."""
        return [e for e in self.entries if isinstance(e, TraceEvent)]

    def surviving_events(self) -> list[TraceEvent]:
        """Events whose written records still exist in the stable
        stream: a crash drops every earlier event whose record sat in
        the wiped volatile buffer (its LSN is reused afterwards)."""
        survivors: list[TraceEvent] = []
        for entry in self.entries:
            if isinstance(entry, CrashMark):
                survivors = [
                    event
                    for event in survivors
                    if not (
                        event.wrote_record
                        and event.record_lsn >= entry.stable_lsn
                    )
                ]
            else:
                survivors.append(entry)
        return survivors
