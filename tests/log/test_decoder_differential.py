"""The record decoder against the method-per-field reader it replaced.

``log/serialization.py`` reads every field through module-level readers
over ``(data, pos)``, and ``log/records.py::decode_record`` reads a
message record's header inline and hands content-free payloads out of
a table.  The reference below is the decoder they replaced: a
``Reader`` object with one method call per field, and the
``decode_record`` built on it.  Over every record the strategies
generate, and over those payloads with one to three byte flips,
truncations and tag splices, both must give an equal record with the
same types all the way down (a tuple is not a list, a set not a
frozenset, ``True`` not ``1``), or raise :class:`LogCorruptionError`
with the same message.
"""

from __future__ import annotations

import dataclasses
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.ids import ComponentRef, GlobalCallId, LocalRef
from repro.common.messages import (
    MessageKind,
    MethodCallMessage,
    ReplyMessage,
    SenderInfo,
)
from repro.common.types import ComponentType
from repro.errors import LogCorruptionError
from repro.log import (
    BeginCheckpointRecord,
    CheckpointContextEntry,
    CheckpointContextTableRecord,
    CheckpointLastCallRecord,
    CheckpointRemoteTypeRecord,
    ComponentStateSnapshot,
    ContextStateRecord,
    CreationRecord,
    EndCheckpointRecord,
    LastCallEntrySnapshot,
    LastCallReplyRecord,
    MessageRecord,
    decode_record,
    decode_value,
    encode_record,
    encode_value,
)
from tests.log.strategies import records, wire_values

# ----------------------------------------------------------------------
# the reference: one Reader method per field
# ----------------------------------------------------------------------
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")
_COMPONENT_TYPES = {kind.wire_value: kind for kind in ComponentType}
_MESSAGE_KINDS = {kind.value: kind for kind in MessageKind}


class Reader:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0
        self._end = len(data)

    def _truncated(self, pos: int, length: int) -> LogCorruptionError:
        return LogCorruptionError(
            f"truncated value: wanted {length} bytes at {pos}, "
            f"have {max(0, self._end - pos)}"
        )

    def _malformed(self, what: str) -> LogCorruptionError:
        return LogCorruptionError(f"{what} at {self._pos}")

    def u8(self) -> int:
        pos = self._pos
        if pos >= self._end:
            raise self._truncated(pos, 1)
        self._pos = pos + 1
        return self._data[pos]

    def u32(self) -> int:
        pos = self._pos
        if pos + 4 > self._end:
            raise self._truncated(pos, 4)
        self._pos = pos + 4
        return _U32.unpack_from(self._data, pos)[0]

    def f64(self) -> float:
        pos = self._pos
        if pos + 8 > self._end:
            raise self._truncated(pos, 8)
        self._pos = pos + 8
        return _F64.unpack_from(self._data, pos)[0]

    def _sized(self) -> tuple[int, int]:
        pos = self._pos
        try:
            start = pos + 4
            end = start + _U32.unpack_from(self._data, pos)[0]
        except struct.error:
            raise self._truncated(pos, 4) from None
        if end > self._end:
            raise self._truncated(start, end - start)
        self._pos = end
        return start, end

    def text(self) -> str:
        start, end = self._sized()
        try:
            return self._data[start:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LogCorruptionError(
                f"invalid UTF-8 in value at {start}: {exc}"
            ) from None

    def blob(self) -> bytes:
        start, end = self._sized()
        return self._data[start:end]

    def signed(self) -> int:
        data = self._data
        start = self._pos + 1
        try:
            end = start + data[start - 1]
        except IndexError:
            raise self._truncated(start - 1, 1) from None
        if end > self._end:
            raise self._truncated(start, end - start)
        self._pos = end
        return int.from_bytes(data[start:end], "little", signed=True)

    def flag(self) -> bool:
        return self.u8() != 0

    def component_type(self) -> ComponentType:
        wire = self.text()
        kind = _COMPONENT_TYPES.get(wire)
        if kind is None:
            raise self._malformed(f"unknown component type {wire!r}")
        return kind

    def message_kind(self) -> MessageKind:
        code = self.u8()
        kind = _MESSAGE_KINDS.get(code)
        if kind is None:
            raise self._malformed(f"unknown message kind {code}")
        return kind

    def value(self) -> object:
        pos = self._pos
        if pos >= self._end:
            raise self._truncated(pos, 1)
        tag = self._data[pos]
        self._pos = pos + 1
        if tag == ord("S"):
            return self.text()
        if tag == ord("I"):
            return self.signed()
        if tag == ord("U"):
            return tuple(self._sequence())
        if tag == ord("N"):
            return None
        if tag == ord("T"):
            return True
        if tag == ord("F"):
            return False
        if tag == ord("D"):
            return self.f64()
        if tag == ord("B"):
            return self.blob()
        if tag == ord("L"):
            return self._sequence()
        if tag == ord("M"):
            count = self.u32()
            try:
                return {self.value(): self.value() for _ in range(count)}
            except TypeError:
                raise self._malformed("unhashable dict key") from None
        if tag == ord("E") or tag == ord("Z"):
            items = self._sequence()
            try:
                return set(items) if tag == ord("E") else frozenset(items)
            except TypeError:
                raise self._malformed("unhashable set member") from None
        if tag == ord("K"):
            return self.call_id()
        if tag == ord("R"):
            return ComponentRef(self.text())
        if tag == ord("r"):
            return LocalRef(self.signed())
        if tag == ord("Y"):
            return self.component_type()
        if tag == ord("A"):
            return self.sender_info()
        if tag == ord("C"):
            return self.method_call()
        if tag == ord("P"):
            return self.reply()
        raise LogCorruptionError(f"unknown value tag {tag} at {pos}")

    def _sequence(self) -> list:
        count = self.u32()
        return [self.value() for _ in range(count)]

    def tuple_value(self) -> tuple:
        value = self.value()
        if type(value) is not tuple:
            raise self._malformed(
                f"expected a tuple, got {type(value).__name__}"
            )
        return value

    def call_id(self) -> GlobalCallId:
        return GlobalCallId(
            self.text(), self.signed(), self.signed(), self.signed()
        )

    def optional_call_id(self) -> GlobalCallId | None:
        return self.call_id() if self.u8() else None

    def sender_info(self) -> SenderInfo:
        return SenderInfo(self.component_type(), self.text(), self.flag())

    def optional_sender_info(self) -> SenderInfo | None:
        return self.sender_info() if self.u8() else None

    def method_call(self) -> MethodCallMessage:
        target_uri = self.text()
        method = self.text()
        call_id = self.optional_call_id()
        sender = self.optional_sender_info()
        method_read_only = self.flag()
        args = self.tuple_value()
        kwargs = self.tuple_value()
        for pair in kwargs:
            if type(pair) is not tuple or len(pair) != 2:
                raise self._malformed("keyword argument is not a pair")
        return MethodCallMessage(
            target_uri, method, args, kwargs, call_id, sender,
            method_read_only,
        )

    def reply(self) -> ReplyMessage:
        call_id = self.optional_call_id()
        is_exception = self.flag()
        exception_message = self.text()
        sender = self.optional_sender_info()
        method_read_only = self.flag()
        return ReplyMessage(
            call_id, self.value(), is_exception, exception_message, sender,
            method_read_only,
        )


def reference_decode_value(data: bytes) -> object:
    reader = Reader(data)
    obj = reader.value()
    if reader._pos < reader._end:
        raise LogCorruptionError(
            f"{len(data) - reader._pos} trailing bytes after value"
        )
    return obj


def _caller_key(reader: Reader) -> tuple[str, int, int]:
    return (reader.text(), reader.signed(), reader.signed())


def _last_calls(reader: Reader) -> tuple[LastCallEntrySnapshot, ...]:
    return tuple(
        LastCallEntrySnapshot(
            caller_key=_caller_key(reader),
            call_id=reader.call_id(),
            reply_lsn=reader.signed(),
        )
        for _ in range(reader.u32())
    )


def reference_decode_record(payload: bytes):
    reader = Reader(payload)
    tag = reader.u8()
    if tag == 1:
        context_id = reader.signed()
        kind = reader.message_kind()
        short = reader.flag()
        return MessageRecord(context_id, kind, reader.value(), short)
    if tag == 2:
        return CreationRecord(
            context_id=reader.signed(),
            component_lid=reader.signed(),
            class_name=reader.text(),
            args=reader.tuple_value(),
            uri=reader.text(),
            component_type=reader.component_type(),
            registered_name=reader.text(),
        )
    if tag == 3:
        context_id = reader.signed()
        uri = reader.text()
        handled = reader.signed()
        snapshots = tuple(
            ComponentStateSnapshot(
                component_lid=reader.signed(),
                class_name=reader.text(),
                component_type=reader.component_type(),
                fields=reader.value(),
                next_outgoing_seq=reader.signed(),
            )
            for _ in range(reader.u32())
        )
        return ContextStateRecord(
            context_id=context_id,
            uri=uri,
            incoming_calls_handled=handled,
            snapshots=snapshots,
            last_calls=_last_calls(reader),
        )
    if tag == 4:
        return LastCallReplyRecord(
            context_id=reader.signed(),
            caller_key=_caller_key(reader),
            call_id=reader.call_id(),
            reply=reader.reply(),
        )
    if tag == 5:
        return BeginCheckpointRecord(context_id=reader.signed())
    if tag == 6:
        context_id = reader.signed()
        entries = tuple(
            CheckpointContextEntry(
                context_id=reader.signed(),
                uri=reader.text(),
                state_record_lsn=reader.signed(),
                creation_lsn=reader.signed(),
            )
            for _ in range(reader.u32())
        )
        return CheckpointContextTableRecord(context_id, entries)
    if tag == 7:
        context_id = reader.signed()
        entries = tuple(
            (reader.text(), reader.component_type())
            for _ in range(reader.u32())
        )
        return CheckpointRemoteTypeRecord(context_id, entries)
    if tag == 8:
        context_id = reader.signed()
        return CheckpointLastCallRecord(context_id, _last_calls(reader))
    if tag == 9:
        context_id = reader.signed()
        return EndCheckpointRecord(context_id, reader.signed())
    raise LogCorruptionError(f"unknown record tag {tag}")


# ----------------------------------------------------------------------
# comparing outcomes
# ----------------------------------------------------------------------
def shape(obj: object) -> object:
    """``obj`` with its type at every level, so that equal shapes mean
    equal values of the same types (``True`` is not ``1`` here, and a
    float compares by its bytes, NaN included)."""
    kind = type(obj)
    if kind is float:
        return (kind, struct.pack("<d", obj))
    if kind in (tuple, list):
        return (kind, tuple(shape(item) for item in obj))
    if kind in (set, frozenset):
        return (kind, frozenset(shape(item) for item in obj))
    if kind is dict:
        return (kind, frozenset((shape(k), shape(v)) for k, v in obj.items()))
    if dataclasses.is_dataclass(obj):
        return (kind, tuple(
            shape(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        ))
    return (kind, obj)


def outcome(decode, data: bytes) -> object:
    try:
        return shape(decode(data))
    except LogCorruptionError as exc:
        return ("raised", str(exc))


def assert_same(decode, reference, data: bytes) -> None:
    assert outcome(decode, data) == outcome(reference, data)


# Bytes a splice may insert: every value tag, every record kind byte, or
# anything at all.
_SPLICES = st.sampled_from(b"NTFIDSBLUMEZKRrYACP" + bytes(range(1, 10))) | (
    st.integers(0, 255)
)


@st.composite
def corrupted(draw, encodings):
    """A valid encoding with one to three byte flips, truncations or tag
    splices (inserted, or overwriting a byte)."""
    data = bytearray(draw(encodings))
    for __ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        how = draw(st.sampled_from(("flip", "truncate", "splice")))
        if how == "flip" and at < len(data):
            data[at] ^= draw(st.integers(1, 255))
        elif how == "truncate":
            del data[at:]
        else:
            width = draw(st.integers(0, 1))
            data[at:at + width] = bytes([draw(_SPLICES)])
    return bytes(data)


# ----------------------------------------------------------------------
# the properties
# ----------------------------------------------------------------------
@given(record=records)
@settings(max_examples=400, deadline=None)
def test_every_record_decodes_as_the_reference_does(record):
    payload = encode_record(record)
    assert shape(decode_record(payload)) == shape(record)
    assert_same(decode_record, reference_decode_record, payload)


@given(data=corrupted(records.map(encode_record)))
@settings(max_examples=1500, deadline=None)
def test_corrupt_records_decode_or_fail_as_the_reference_does(data):
    assert_same(decode_record, reference_decode_record, data)


@given(value=wire_values)
@settings(max_examples=300, deadline=None)
def test_every_value_decodes_as_the_reference_does(value):
    assert_same(decode_value, reference_decode_value, encode_value(value))


@given(data=corrupted(wire_values.map(encode_value)))
@settings(max_examples=1500, deadline=None)
def test_corrupt_values_decode_or_fail_as_the_reference_does(data):
    assert_same(decode_value, reference_decode_value, data)


@given(noise=st.binary(max_size=80), kind=st.integers(1, 9))
@settings(max_examples=300, deadline=None)
def test_noise_after_a_record_kind_fails_as_the_reference_does(noise, kind):
    assert_same(decode_record, reference_decode_record, bytes([kind]) + noise)


def test_a_content_free_record_decodes_as_the_reference_does_twice():
    """The second decode of a short reply comes out of the table: still
    the reference's record, and a corrupt neighbour still fails."""
    payload = encode_record(
        MessageRecord(7, MessageKind.REPLY_TO_INCOMING, None, True)
    )
    for __ in range(2):
        assert_same(decode_record, reference_decode_record, payload)
    for cut in range(len(payload)):
        assert_same(decode_record, reference_decode_record, payload[:cut])
    spliced = payload[:3] + b"\x63" + payload[4:]
    assert_same(decode_record, reference_decode_record, spliced)
    trailing = payload + b"\x00"
    assert_same(decode_record, reference_decode_record, trailing)


def test_context_ids_at_the_width_boundaries_decode_as_the_reference_does():
    """A one-byte context id is read without a slice; ids around the
    one- and two-byte widths, negative ones included, read as before."""
    call = MethodCallMessage("phoenix://a/p/1", "m", (1,), (("k", 2),))
    for context_id in (-129, -128, -127, -1, 0, 1, 127, 128, 255, 256):
        for message in (None, call):
            payload = encode_record(
                MessageRecord(context_id, MessageKind.INCOMING_CALL, message)
            )
            assert decode_record(payload).context_id == context_id
            assert_same(decode_record, reference_decode_record, payload)
            one_byte = payload[:1] + b"\x01" + payload[2:3] + payload[-2:]
            assert_same(decode_record, reference_decode_record, one_byte)
