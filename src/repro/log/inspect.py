"""The log fold: the one pass that decodes a stable log and dispatches
on record class (:func:`fold`), and what it found (:class:`LogFacts`).

Recovery's analysis pass (paper Section 4.4) folds each stream from its
well-known LSN, selecting only the kinds it consumes, and the trace
checker only the message records; :func:`summarize_log` folds the whole
log, so tests and operators see exactly what each algorithm writes.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from collections.abc import Collection
from dataclasses import dataclass, field

from ..common.messages import MessageKind
from .log_manager import LogManager
from .records import (
    BeginCheckpointRecord,
    CheckpointContextTableRecord,
    CheckpointLastCallRecord,
    CheckpointRemoteTypeRecord,
    ContextStateRecord,
    CreationRecord,
    EndCheckpointRecord,
    LastCallReplyRecord,
    LogRecord,
    MessageRecord,
)

NO_LSN = -1  # ``repro.core.tables.NO_LSN``; the log does not import core


@dataclass
class ContextFacts:
    """What one context has on the log."""

    context_id: int
    #: The stream whose log holds its records (sharded logging keeps a
    #: context's records on one stream; recovery re-routes by this).
    stream: int = 0
    creation_lsn: int = NO_LSN
    creation: CreationRecord | None = None
    state_lsn: int = NO_LSN
    state: ContextStateRecord | None = None
    creations: int = 0
    messages: TallyCounter = field(default_factory=TallyCounter)  # by kind
    state_records: int = 0
    last_call_replies: int = 0

    @property
    def start_lsn(self) -> int:
        return self.state_lsn if self.state_lsn != NO_LSN else self.creation_lsn


@dataclass
class CheckpointChain:
    """One begin..end checkpoint bracket found on the log, with its
    table entries in log order.  A fold that does not select the begin
    and end records (recovery's analysis pass) files every table record
    it meets under one bracket whose ``begin_lsn`` is ``NO_LSN``."""

    begin_lsn: int = NO_LSN
    context_entries: int = 0  # folded into the contexts' facts
    remote_types: list = field(default_factory=list)
    last_calls: list = field(default_factory=list)
    complete: bool = False


@dataclass
class LogFacts:
    """Everything :func:`fold` found."""

    process_name: str
    base_lsn: int = 0
    stable_lsn: int = 0
    record_count: int = 0
    records_by_kind: TallyCounter = field(default_factory=TallyCounter)
    messages_by_kind: TallyCounter = field(default_factory=TallyCounter)
    short_records: int = 0
    contexts: dict = field(default_factory=dict)  # id -> ContextFacts
    checkpoints: list = field(default_factory=list)
    published_checkpoint_lsn: int | None = None
    #: ``(lsn, record)`` of every message record the fold selected.
    messages: list = field(default_factory=list)

    def context(self, context_id: int) -> ContextFacts:
        if context_id not in self.contexts:
            self.contexts[context_id] = ContextFacts(context_id)
        return self.contexts[context_id]


def fold(
    log: LogManager,
    start: int = 0,
    kinds: Collection[type[LogRecord]] | None = None,
    facts: LogFacts | None = None,
    stream: int = 0,
) -> LogFacts:
    """Fold the stable log from ``start`` — every record, or those of
    ``kinds`` — in log order, into ``facts`` when given (a process's
    streams folded in order, each with its ``stream`` index, are one
    scan of them all).  A context's creation is its creation record or,
    while it has none, the first checkpoint context-table entry naming
    it; its state is the highest state LSN of a state record or entry."""
    if facts is None:
        facts = LogFacts(
            process_name=log.process_name,
            base_lsn=log.base_lsn,
            stable_lsn=log.stable_lsn,
            published_checkpoint_lsn=log.read_well_known_lsn(),
        )
    bracket: CheckpointChain | None = None

    for lsn, record in log.scan(start, kinds=kinds):
        facts.record_count += 1
        facts.records_by_kind[type(record).__name__] += 1
        if isinstance(record, MessageRecord):
            facts.messages.append((lsn, record))
            facts.messages_by_kind[record.kind.name] += 1
            if record.short:
                facts.short_records += 1
            facts.context(record.context_id).messages[record.kind] += 1
        elif isinstance(record, CreationRecord):
            context = facts.context(record.context_id)
            context.stream = stream
            context.creations += 1
            context.creation_lsn = lsn
            context.creation = record
        elif isinstance(record, ContextStateRecord):
            context = facts.context(record.context_id)
            context.stream = stream
            context.state_records += 1
            if lsn > context.state_lsn:
                context.state_lsn = lsn
                context.state = record
        elif isinstance(record, LastCallReplyRecord):
            facts.context(record.context_id).last_call_replies += 1
        elif isinstance(record, BeginCheckpointRecord):
            bracket = CheckpointChain(begin_lsn=lsn)
            facts.checkpoints.append(bracket)
        elif isinstance(record, EndCheckpointRecord):
            if bracket is not None and record.begin_lsn == bracket.begin_lsn:
                bracket.complete = True
            bracket = None
        else:
            # A checkpoint table record.
            if bracket is None:
                bracket = CheckpointChain()
                facts.checkpoints.append(bracket)
            if isinstance(record, CheckpointContextTableRecord):
                bracket.context_entries += len(record.entries)
                for entry in record.entries:
                    context = facts.context(entry.context_id)
                    if context.creation_lsn == NO_LSN:
                        context.creation_lsn = entry.creation_lsn
                    if entry.state_record_lsn > context.state_lsn:
                        context.state_lsn = entry.state_record_lsn
                        context.state = None  # the table holds no record
            elif isinstance(record, CheckpointRemoteTypeRecord):
                bracket.remote_types.extend(record.entries)
            elif isinstance(record, CheckpointLastCallRecord):
                bracket.last_calls.extend(record.entries)
    return facts


def summarize_log(log: LogManager) -> LogFacts:
    """Fold a log end to end, accounting for every record."""
    return fold(log)


def format_summary(summary: LogFacts) -> str:
    """A human-readable report."""
    lines = [
        f"log of process {summary.process_name}",
        f"  LSN range: [{summary.base_lsn}, {summary.stable_lsn}) "
        f"({summary.stable_lsn - summary.base_lsn} stable bytes)",
        f"  records: {summary.record_count}",
    ]
    for name in sorted(summary.records_by_kind):
        lines.append(f"    {name}: {summary.records_by_kind[name]}")
    if summary.messages_by_kind:
        lines.append("  messages by kind:")
        for name in sorted(summary.messages_by_kind):
            lines.append(f"    {name}: {summary.messages_by_kind[name]}")
    if summary.short_records:
        lines.append(f"  short records: {summary.short_records}")
    if summary.contexts:
        lines.append("  contexts:")
        for context_id in sorted(summary.contexts):
            activity = summary.contexts[context_id]
            messages = activity.messages
            lines.append(
                f"    #{context_id}: {messages[MessageKind.INCOMING_CALL]} in, "
                f"{messages[MessageKind.REPLY_FROM_OUTGOING]} replies logged, "
                f"{activity.state_records} state records"
            )
    if summary.checkpoints:
        complete = sum(1 for c in summary.checkpoints if c.complete)
        lines.append(
            f"  checkpoints: {len(summary.checkpoints)} "
            f"({complete} complete)"
        )
    if summary.published_checkpoint_lsn is not None:
        lines.append(
            f"  published checkpoint LSN: "
            f"{summary.published_checkpoint_lsn}"
        )
    return "\n".join(lines)
