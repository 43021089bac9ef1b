"""Log record types.

Paper Table 1 and Sections 2.3, 4.2 and 4.3 define what goes on the log:

* **message records** — one of the four message kinds, logged by a
  context's interceptor according to the active logging algorithm.
  Algorithm 3 distinguishes *long* records (full message content) from
  *short* records (only the fact that a reply was sent);
* **creation records** — class, constructor arguments and identity of a
  new (parent) component, enough to re-create it during replay;
* **context state records** — the field values of every component in a
  context plus the context-table metadata needed to rebuild it
  (Section 4.2);
* **last-call reply records** — replies of last-call entries, written
  just before a context state record so duplicate detection survives a
  restore that skips replay (Section 4.2);
* **process checkpoint records** — ``begin`` / table dumps / ``end``
  bracketing an incremental copy of the process's global tables
  (Section 4.3).

Each record serializes to a tagged payload; the log manager frames the
payload with a CRC (see :mod:`repro.log.serialization`).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from operator import itemgetter

from ..common.ids import GlobalCallId
from ..common.messages import MessageKind, MethodCallMessage, ReplyMessage
from ..common.types import ComponentType
from ..errors import LogCorruptionError
from .serialization import (
    _I_METHOD_CALL,
    _I_NONE,
    _I_REPLY,
    Writer,
    frame_overhead,
    message_encoding,
    not_a_tuple,
    read_call_id,
    read_component_type,
    read_method_call,
    read_reply,
    read_signed,
    read_text,
    read_u32,
    read_value,
    truncated,
)

CallerKey = tuple[str, int, int]


@dataclass(frozen=True)
class LogRecord:
    """Base class; ``context_id`` is the parent component ID that names
    the logging context (paper Section 4.2), or ``-1`` for process-level
    records."""

    context_id: int


@dataclass(frozen=True)
class MessageRecord(LogRecord):
    """A logged message (any of Figure 1's four kinds).

    ``short=True`` records carry no message content — only the fact that
    the message was sent (Algorithm 3's short record for message 2 to an
    external client)."""

    kind: MessageKind = MessageKind.INCOMING_CALL
    message: MethodCallMessage | ReplyMessage | None = None
    short: bool = False


@dataclass(frozen=True)
class CreationRecord(LogRecord):
    """Creation of a (parent) component and its context."""

    component_lid: int = 0
    class_name: str = ""
    args: tuple = ()
    uri: str = ""
    component_type: ComponentType = ComponentType.PERSISTENT
    registered_name: str = ""


@dataclass(frozen=True)
class ComponentStateSnapshot:
    """One component's saved fields inside a context state record."""

    component_lid: int
    class_name: str
    component_type: ComponentType
    fields: dict
    next_outgoing_seq: int


@dataclass(frozen=True)
class LastCallEntrySnapshot:
    """A last-call table entry as saved in a state record: the caller,
    the last call ID, and the LSN of the logged reply message."""

    caller_key: CallerKey
    call_id: GlobalCallId
    reply_lsn: int


@dataclass(frozen=True)
class ContextStateRecord(LogRecord):
    """Saved state of a whole context (parent + subordinates)."""

    uri: str = ""
    incoming_calls_handled: int = 0
    snapshots: tuple[ComponentStateSnapshot, ...] = ()
    last_calls: tuple[LastCallEntrySnapshot, ...] = ()


@dataclass(frozen=True)
class LastCallReplyRecord(LogRecord):
    """The reply message of a last-call entry, made durable before a
    context state record is written (Section 4.2)."""

    caller_key: CallerKey = ("", 0, 0)
    call_id: GlobalCallId = GlobalCallId("", 0, 0, 0)
    reply: ReplyMessage = ReplyMessage(call_id=None)


@dataclass(frozen=True)
class BeginCheckpointRecord(LogRecord):
    """Start of a process checkpoint (context_id is -1)."""


@dataclass(frozen=True)
class CheckpointContextEntry:
    """Context-table entry dumped inside a process checkpoint."""

    context_id: int
    uri: str
    state_record_lsn: int  # -1 when no state record has been saved yet
    creation_lsn: int


@dataclass(frozen=True)
class CheckpointContextTableRecord(LogRecord):
    """A sub-range of the context table (Section 4.3 writes the global
    tables incrementally under sub-range locks)."""

    entries: tuple[CheckpointContextEntry, ...] = ()


@dataclass(frozen=True)
class CheckpointRemoteTypeRecord(LogRecord):
    """A sub-range of the remote-component-type table."""

    entries: tuple[tuple[str, ComponentType], ...] = ()


@dataclass(frozen=True)
class CheckpointLastCallRecord(LogRecord):
    """A sub-range of the last-call table (IDs and reply LSNs only;
    reply content is read lazily when a duplicate call arrives)."""

    entries: tuple[LastCallEntrySnapshot, ...] = ()


@dataclass(frozen=True)
class EndCheckpointRecord(LogRecord):
    """End of a process checkpoint; points back at its begin record."""

    begin_lsn: int = -1


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
_TAG_MESSAGE = 1
_TAG_CREATION = 2
_TAG_CONTEXT_STATE = 3
_TAG_LAST_CALL_REPLY = 4
_TAG_BEGIN_CHECKPOINT = 5
_TAG_CHECKPOINT_CONTEXTS = 6
_TAG_CHECKPOINT_REMOTE_TYPES = 7
_TAG_CHECKPOINT_LAST_CALLS = 8
_TAG_END_CHECKPOINT = 9

# The payload's first byte names the record's class.  The log manager
# keeps it as a column of its frame index, so a reader can select
# records by class without decoding the ones it does not want.
_KIND_BY_CLASS: dict[type[LogRecord], int] = {
    MessageRecord: _TAG_MESSAGE,
    CreationRecord: _TAG_CREATION,
    ContextStateRecord: _TAG_CONTEXT_STATE,
    LastCallReplyRecord: _TAG_LAST_CALL_REPLY,
    BeginCheckpointRecord: _TAG_BEGIN_CHECKPOINT,
    CheckpointContextTableRecord: _TAG_CHECKPOINT_CONTEXTS,
    CheckpointRemoteTypeRecord: _TAG_CHECKPOINT_REMOTE_TYPES,
    CheckpointLastCallRecord: _TAG_CHECKPOINT_LAST_CALLS,
    EndCheckpointRecord: _TAG_END_CHECKPOINT,
}
_KNOWN_KINDS = frozenset(_KIND_BY_CLASS.values())


def record_kind(record_class: type[LogRecord]) -> int:
    """The kind byte every payload of ``record_class`` starts with."""
    try:
        return _KIND_BY_CLASS[record_class]
    except KeyError:
        raise LogCorruptionError(
            f"unknown record class {record_class.__name__}"
        ) from None


def payload_kind(payload: bytes) -> int:
    """The kind byte of a frame payload, without decoding the rest.

    A payload whose first byte names no record class is corrupt even
    when its CRC holds, and says so here: indexing a frame by kind (and
    later skipping it unread) must never be what hides it."""
    if not payload or payload[0] not in _KNOWN_KINDS:
        tag = payload[0] if payload else "missing"
        raise LogCorruptionError(f"unknown record tag {tag}")
    return payload[0]


def payload_context(payload: bytes) -> int:
    """The context id of a frame payload, read from its header
    ``[kind u8][len u8][signed id]`` without decoding the rest.

    Every record class writes its context id right after the kind byte,
    so the log manager keeps it as a column of its frame index and
    groups frames into per-component chains without decoding them.  A
    header whose id field overruns the payload is corrupt even when its
    CRC holds, and raises here."""
    try:
        if payload[1] == 1 and payload[2] < 0x80:
            return payload[2]  # one byte, non-negative: nearly every id
    except IndexError:
        pass  # too short for that; the check below says so
    size = len(payload)
    if size < 2 or 2 + payload[1] > size:
        raise LogCorruptionError(
            f"context id overruns the {size}-byte payload"
        )
    return int.from_bytes(payload[2 : 2 + payload[1]], "little", signed=True)


# Byte translation tables flagging (1) what the bulk read cannot take:
# an unknown kind byte, an id longer than one byte, a negative id.
_UNKNOWN_KIND = bytes(0 if b in _KNOWN_KINDS else 1 for b in range(256))
_NOT_ONE = bytes(0 if b == 1 else 1 for b in range(256))
_HIGH_BIT = bytes(b >> 7 for b in range(256))


def _flagged(flags: bytes) -> Iterator[int]:
    """The positions of the 1s in a string of 0/1 bytes."""
    at = flags.find(1)
    while at >= 0:
        yield at
        at = flags.find(1, at + 1)


def payload_columns(
    data: bytes, starts: list[int], lengths: list[int]
) -> tuple[bytearray, list[int], LogCorruptionError | None]:
    """The kind and context columns of the CRC-valid frames of ``data``
    at ``starts`` (frame offsets) with ``lengths`` (whole frames).

    Equal to :func:`payload_kind` and :func:`payload_context` applied to
    each payload in order, but read in bulk: every payload's first three
    bytes — kind, id length, a one-byte id — are picked out of ``data``
    shifted by one header, plus one and plus two bytes, and only frames
    those bytes do not settle (an unknown kind, any id but a
    non-negative one-byte one, a payload under three bytes) go through
    the two functions.  Returns ``(kinds, contexts, error)``: at the
    first frame they refuse, the columns stop short and ``error`` is
    what they raised; otherwise ``error`` is ``None``.
    """
    count = len(starts)
    header = frame_overhead()
    unsettled: Iterable[int]
    if count > 1 and min(lengths) >= header + 3:
        pick = itemgetter(*starts)  # a tuple for two or more offsets
        kinds = bytearray(pick(data[header:]))
        sizes = bytes(pick(data[header + 1 :]))
        ids = bytes(pick(data[header + 2 :]))
        contexts = list(ids)
        unsettled = sorted(
            {
                *_flagged(kinds.translate(_UNKNOWN_KIND)),
                *_flagged(sizes.translate(_NOT_ONE)),
                *_flagged(ids.translate(_HIGH_BIT)),
            }
        )
    else:
        kinds = bytearray(count)
        contexts = [0] * count
        unsettled = range(count)
    for i in unsettled:
        start = starts[i]
        payload = data[start + header : start + lengths[i]]
        try:
            kinds[i] = payload_kind(payload)
            contexts[i] = payload_context(payload)
        except LogCorruptionError as exc:
            return kinds[:i], contexts[:i], exc
    return kinds, contexts, None


def encode_record(record: LogRecord) -> bytes:
    """Serialize a record into a frame payload."""
    writer = Writer()
    encode_record_into(writer, record)
    return writer.getvalue()


def encode_record_into(writer: Writer, record: LogRecord) -> None:
    """Serialize a record through ``writer``.

    The streaming form of :func:`encode_record`: the log manager passes
    a writer bound to its volatile buffer so appending a record never
    builds an intermediate ``bytes`` object.
    """
    if isinstance(record, MessageRecord):
        writer.u8(_TAG_MESSAGE)
        writer.signed(record.context_id)
        writer.u8(record.kind.value)
        writer.u8(1 if record.short else 0)
        writer.value(record.message)
    elif isinstance(record, CreationRecord):
        writer.u8(_TAG_CREATION)
        writer.signed(record.context_id)
        writer.signed(record.component_lid)
        writer.text(record.class_name)
        writer.value(tuple(record.args))
        writer.text(record.uri)
        writer.text(record.component_type.wire_value)
        writer.text(record.registered_name)
    elif isinstance(record, ContextStateRecord):
        writer.u8(_TAG_CONTEXT_STATE)
        writer.signed(record.context_id)
        writer.text(record.uri)
        writer.signed(record.incoming_calls_handled)
        writer.u32(len(record.snapshots))
        for snapshot in record.snapshots:
            writer.signed(snapshot.component_lid)
            writer.text(snapshot.class_name)
            writer.text(snapshot.component_type.wire_value)
            writer.value(snapshot.fields)
            writer.signed(snapshot.next_outgoing_seq)
        _encode_last_calls(writer, record.last_calls)
    elif isinstance(record, LastCallReplyRecord):
        writer.u8(_TAG_LAST_CALL_REPLY)
        writer.signed(record.context_id)
        _encode_caller_key(writer, record.caller_key)
        writer.call_id(record.call_id)
        # the reply's shared encoding, without its value tag
        writer.raw(message_encoding(record.reply)[1:])
    elif isinstance(record, BeginCheckpointRecord):
        writer.u8(_TAG_BEGIN_CHECKPOINT)
        writer.signed(record.context_id)
    elif isinstance(record, CheckpointContextTableRecord):
        writer.u8(_TAG_CHECKPOINT_CONTEXTS)
        writer.signed(record.context_id)
        writer.u32(len(record.entries))
        for entry in record.entries:
            writer.signed(entry.context_id)
            writer.text(entry.uri)
            writer.signed(entry.state_record_lsn)
            writer.signed(entry.creation_lsn)
    elif isinstance(record, CheckpointRemoteTypeRecord):
        writer.u8(_TAG_CHECKPOINT_REMOTE_TYPES)
        writer.signed(record.context_id)
        writer.u32(len(record.entries))
        for uri, component_type in record.entries:
            writer.text(uri)
            writer.text(component_type.wire_value)
    elif isinstance(record, CheckpointLastCallRecord):
        writer.u8(_TAG_CHECKPOINT_LAST_CALLS)
        writer.signed(record.context_id)
        _encode_last_calls(writer, record.entries)
    elif isinstance(record, EndCheckpointRecord):
        writer.u8(_TAG_END_CHECKPOINT)
        writer.signed(record.context_id)
        writer.signed(record.begin_lsn)
    else:
        raise LogCorruptionError(
            f"unknown record class {type(record).__name__}"
        )


_MESSAGE_KINDS = {kind.value: kind for kind in MessageKind}

#: Content-free message records (Algorithm 3's short reply), one shared
#: instance per payload: such a record is frozen and carries nothing
#: but its header, so a payload decodes to it once.  It fills as records
#: are decoded, and only with payloads that end at the absent message,
#: so it holds one entry per (context, kind, short) the log has written.
_CONTENT_FREE: dict[bytes, MessageRecord] = {}


def decode_record(payload: bytes) -> LogRecord:
    """Decode a frame payload back into a record.

    Malformed payloads (wrong tags, bad enum values, truncated fields)
    surface uniformly as :class:`LogCorruptionError`, raised at the field
    that cannot be what the writer wrote."""
    if not payload:
        raise truncated(payload, 0, 1)
    tag = payload[0]
    if tag == _TAG_MESSAGE:
        if payload[-1] == _I_NONE:
            record = _CONTENT_FREE.get(payload)
            if record is not None:
                return record
        # Header, kind and short flag in payload order, read inline.
        pos = 1
        try:
            end = 2 + payload[1]
            if end > len(payload):
                raise truncated(payload, 2, end - 2)
            if end == 3:  # a one-byte id: nearly every context's
                context_id = payload[2]
                if context_id > 0x7F:
                    context_id -= 0x100
            else:
                context_id = int.from_bytes(
                    payload[2:end], "little", signed=True
                )
            pos = end
            kind = _MESSAGE_KINDS.get(payload[pos])
            if kind is None:
                raise LogCorruptionError(
                    f"unknown message kind {payload[pos]} at {pos + 1}"
                )
            pos += 1
            short = payload[pos] != 0
            pos += 1
            value_tag = payload[pos]
        except IndexError:
            raise truncated(payload, pos, 1) from None
        if value_tag == _I_METHOD_CALL:
            message, pos = read_method_call(payload, pos + 1)
        elif value_tag == _I_REPLY:
            message, pos = read_reply(payload, pos + 1)
        else:
            message, pos = read_value(payload, pos)
        record = MessageRecord(context_id, kind, message, short)
        if message is None and pos == len(payload):
            _CONTENT_FREE[payload] = record
        return record
    if tag == _TAG_CREATION:
        context_id, pos = read_signed(payload, 1)
        component_lid, pos = read_signed(payload, pos)
        class_name, pos = read_text(payload, pos)
        args, pos = read_value(payload, pos)
        if type(args) is not tuple:
            raise not_a_tuple(args, pos)
        uri, pos = read_text(payload, pos)
        component_type, pos = read_component_type(payload, pos)
        registered_name, pos = read_text(payload, pos)
        return CreationRecord(
            context_id, component_lid, class_name, args, uri,
            component_type, registered_name,
        )
    if tag == _TAG_CONTEXT_STATE:
        context_id, pos = read_signed(payload, 1)
        uri, pos = read_text(payload, pos)
        incoming_calls_handled, pos = read_signed(payload, pos)
        count, pos = read_u32(payload, pos)
        snapshots = []
        for _ in range(count):
            component_lid, pos = read_signed(payload, pos)
            class_name, pos = read_text(payload, pos)
            component_type, pos = read_component_type(payload, pos)
            fields, pos = read_value(payload, pos)
            next_outgoing_seq, pos = read_signed(payload, pos)
            snapshots.append(
                ComponentStateSnapshot(
                    component_lid, class_name, component_type, fields,
                    next_outgoing_seq,
                )
            )
        last_calls, pos = _decode_last_calls(payload, pos)
        return ContextStateRecord(
            context_id, uri, incoming_calls_handled, tuple(snapshots),
            last_calls,
        )
    if tag == _TAG_LAST_CALL_REPLY:
        context_id, pos = read_signed(payload, 1)
        caller_key, pos = _decode_caller_key(payload, pos)
        call_id, pos = read_call_id(payload, pos)
        reply, pos = read_reply(payload, pos)
        return LastCallReplyRecord(context_id, caller_key, call_id, reply)
    if tag == _TAG_BEGIN_CHECKPOINT:
        return BeginCheckpointRecord(read_signed(payload, 1)[0])
    if tag == _TAG_CHECKPOINT_CONTEXTS:
        context_id, pos = read_signed(payload, 1)
        count, pos = read_u32(payload, pos)
        entries = []
        for _ in range(count):
            entry_context, pos = read_signed(payload, pos)
            uri, pos = read_text(payload, pos)
            state_record_lsn, pos = read_signed(payload, pos)
            creation_lsn, pos = read_signed(payload, pos)
            entries.append(
                CheckpointContextEntry(
                    entry_context, uri, state_record_lsn, creation_lsn
                )
            )
        return CheckpointContextTableRecord(context_id, tuple(entries))
    if tag == _TAG_CHECKPOINT_REMOTE_TYPES:
        context_id, pos = read_signed(payload, 1)
        count, pos = read_u32(payload, pos)
        entries = []
        for _ in range(count):
            uri, pos = read_text(payload, pos)
            component_type, pos = read_component_type(payload, pos)
            entries.append((uri, component_type))
        return CheckpointRemoteTypeRecord(context_id, tuple(entries))
    if tag == _TAG_CHECKPOINT_LAST_CALLS:
        context_id, pos = read_signed(payload, 1)
        entries, pos = _decode_last_calls(payload, pos)
        return CheckpointLastCallRecord(context_id, entries)
    if tag == _TAG_END_CHECKPOINT:
        context_id, pos = read_signed(payload, 1)
        begin_lsn, pos = read_signed(payload, pos)
        return EndCheckpointRecord(context_id, begin_lsn)
    raise LogCorruptionError(f"unknown record tag {tag}")


def _encode_caller_key(writer: Writer, key: CallerKey) -> None:
    writer.text(key[0])
    writer.signed(key[1])
    writer.signed(key[2])


def _decode_caller_key(payload: bytes, pos: int) -> tuple[CallerKey, int]:
    machine, pos = read_text(payload, pos)
    process_lid, pos = read_signed(payload, pos)
    component_lid, pos = read_signed(payload, pos)
    return (machine, process_lid, component_lid), pos


def _encode_last_calls(
    writer: Writer, entries: tuple[LastCallEntrySnapshot, ...]
) -> None:
    writer.u32(len(entries))
    for entry in entries:
        _encode_caller_key(writer, entry.caller_key)
        writer.call_id(entry.call_id)
        writer.signed(entry.reply_lsn)


def _decode_last_calls(
    payload: bytes, pos: int
) -> tuple[tuple[LastCallEntrySnapshot, ...], int]:
    count, pos = read_u32(payload, pos)
    entries = []
    for _ in range(count):
        caller_key, pos = _decode_caller_key(payload, pos)
        call_id, pos = read_call_id(payload, pos)
        reply_lsn, pos = read_signed(payload, pos)
        entries.append(LastCallEntrySnapshot(caller_key, call_id, reply_lsn))
    return tuple(entries), pos
