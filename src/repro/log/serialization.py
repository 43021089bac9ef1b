"""Binary codec for log records and checkpointed component state.

The log holds real bytes: every record is serialized with this codec,
framed with a length + CRC32 header, and genuinely decoded again during
recovery.  That keeps the recovery path honest (it reads what normal
execution wrote, not in-memory objects) and gives the log the torn-tail
detection that a real write-ahead log needs.

Supported value types: ``None``, ``bool``, ``int``, ``float``, ``str``,
``bytes``, ``list``, ``tuple``, ``dict``, ``set``, ``frozenset``, plus
the library's wire types (:class:`GlobalCallId`, :class:`ComponentRef`,
:class:`LocalRef`, :class:`ComponentType`, :class:`SenderInfo`, and the
two message classes).  Component fields that fall outside this set fail
checkpointing with a clear :class:`SerializationError` — the same
contract .NET serialization imposed on the original system.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_right
from collections.abc import Iterator

from ..common.ids import ComponentRef, GlobalCallId, LocalRef
from ..common.messages import MethodCallMessage, ReplyMessage, SenderInfo
from ..common.types import ComponentType
from ..errors import LogCorruptionError, SerializationError

# --- value tags -------------------------------------------------------
_T_NONE = b"N"
_T_TRUE = b"T"
_T_FALSE = b"F"
_T_INT = b"I"
_T_FLOAT = b"D"
_T_STR = b"S"
_T_BYTES = b"B"
_T_LIST = b"L"
_T_TUPLE = b"U"
_T_DICT = b"M"
_T_SET = b"E"
_T_FROZENSET = b"Z"
_T_CALL_ID = b"K"
_T_COMPONENT_REF = b"R"
_T_LOCAL_REF = b"r"
_T_COMPONENT_TYPE = b"Y"
_T_SENDER_INFO = b"A"
_T_METHOD_CALL = b"C"
_T_REPLY = b"P"

_MAX_INT_BYTES = 64  # generous: 512-bit integers

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")

# The value tags as ints: what the writer appends and ``data[pos]``
# gives the reader.
(
    _I_NONE, _I_TRUE, _I_FALSE, _I_INT, _I_FLOAT, _I_STR, _I_BYTES,
    _I_LIST, _I_TUPLE, _I_DICT, _I_SET, _I_FROZENSET, _I_CALL_ID,
    _I_COMPONENT_REF, _I_LOCAL_REF, _I_COMPONENT_TYPE, _I_SENDER_INFO,
    _I_METHOD_CALL, _I_REPLY,
) = (
    _T_NONE + _T_TRUE + _T_FALSE + _T_INT + _T_FLOAT + _T_STR + _T_BYTES
    + _T_LIST + _T_TUPLE + _T_DICT + _T_SET + _T_FROZENSET + _T_CALL_ID
    + _T_COMPONENT_REF + _T_LOCAL_REF + _T_COMPONENT_TYPE + _T_SENDER_INFO
    + _T_METHOD_CALL + _T_REPLY
)


class Writer:
    """Appends primitives and tagged values to a byte buffer.

    With ``out`` the writer appends directly to a caller-owned
    ``bytearray`` (the log manager passes its volatile buffer so record
    encoding never materializes an intermediate ``bytes`` object);
    without it the writer owns a fresh buffer.  Each field is packed in
    place: ``u8`` and the value tags are one ``bytearray.append``, and
    fixed-width fields go through the precompiled structs.
    """

    __slots__ = ("_buffer", "_base")

    def __init__(self, out: bytearray | None = None) -> None:
        self._buffer = out if out is not None else bytearray()
        self._base = len(self._buffer)

    def getvalue(self) -> bytes:
        return bytes(self._buffer[self._base:])

    def __len__(self) -> int:
        return len(self._buffer) - self._base

    # -- primitives ----------------------------------------------------
    def raw(self, data: bytes) -> None:
        self._buffer += data

    def u8(self, value: int) -> None:
        self._buffer.append(value)

    def u32(self, value: int) -> None:
        self._buffer += _U32.pack(value)

    def u64(self, value: int) -> None:
        self._buffer += _U64.pack(value)

    def f64(self, value: float) -> None:
        self._buffer += _F64.pack(value)

    def text(self, value: str) -> None:
        try:
            data = value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise SerializationError(
                f"cannot serialize text {value!r}: {exc.reason} at "
                f"index {exc.start}"
            ) from None
        buffer = self._buffer
        buffer += _U32.pack(len(data))
        buffer += data

    def blob(self, value: bytes) -> None:
        buffer = self._buffer
        buffer += _U32.pack(len(value))
        buffer += value

    def signed(self, value: int) -> None:
        """Arbitrary-precision signed integer (length-prefixed)."""
        if -0x80 < value < 0x80:
            # one byte; -128 takes two, as ``bit_length`` sizes it below
            buffer = self._buffer
            buffer.append(1)
            buffer.append(value & 0xFF)
            return
        nbytes = (value.bit_length() + 8) // 8
        if nbytes > _MAX_INT_BYTES:
            raise SerializationError(f"integer too large to log: {value!r}")
        buffer = self._buffer
        buffer.append(nbytes)
        buffer += value.to_bytes(nbytes, "little", signed=True)

    # -- tagged values ---------------------------------------------------
    def value(self, obj: object) -> None:
        """Serialize a tagged value of any supported type."""
        kind = type(obj)
        buffer = self._buffer
        # The types message arguments and replies hold most, first.
        if kind is str:
            buffer.append(_I_STR)
            self.text(obj)
        elif kind is int:
            buffer.append(_I_INT)
            self.signed(obj)
        elif kind is tuple:
            buffer.append(_I_TUPLE)
            self._sequence(obj)
        elif obj is None:
            buffer.append(_I_NONE)
        elif kind is bool:
            buffer.append(_I_TRUE if obj else _I_FALSE)
        elif kind is MethodCallMessage or kind is ReplyMessage:
            buffer += message_encoding(obj)
        elif kind is float:
            buffer.append(_I_FLOAT)
            self.f64(obj)
        elif kind is list:
            buffer.append(_I_LIST)
            self._sequence(obj)
        elif kind is dict:
            buffer.append(_I_DICT)
            buffer += _U32.pack(len(obj))
            for key, item in obj.items():
                self.value(key)
                self.value(item)
        elif kind is bytes or kind is bytearray:
            buffer.append(_I_BYTES)
            self.blob(obj)
        elif kind is set:
            buffer.append(_I_SET)
            self._sequence(_stable_order(obj))
        elif kind is frozenset:
            buffer.append(_I_FROZENSET)
            self._sequence(_stable_order(obj))
        elif kind is GlobalCallId:
            buffer.append(_I_CALL_ID)
            self.call_id(obj)
        elif kind is ComponentRef:
            buffer.append(_I_COMPONENT_REF)
            self.text(obj.uri)
        elif kind is LocalRef:
            buffer.append(_I_LOCAL_REF)
            self.signed(obj.component_lid)
        elif kind is ComponentType:
            buffer.append(_I_COMPONENT_TYPE)
            self.text(obj.wire_value)
        elif kind is SenderInfo:
            buffer.append(_I_SENDER_INFO)
            self.sender_info(obj)
        else:
            raise SerializationError(
                f"cannot serialize {kind.__name__} value {obj!r}; "
                "persistent component fields and method arguments must be "
                "built from plain data types and component references"
            )

    def _sequence(self, items) -> None:
        self._buffer += _U32.pack(len(items))
        value = self.value
        for item in items:
            value(item)

    # -- composite wire types -------------------------------------------
    def call_id(self, call_id: GlobalCallId) -> None:
        self.text(call_id.machine)
        self.signed(call_id.process_lid)
        self.signed(call_id.component_lid)
        self.signed(call_id.seq)

    def optional_call_id(self, call_id: GlobalCallId | None) -> None:
        if call_id is None:
            self._buffer.append(0)
        else:
            self._buffer.append(1)
            self.call_id(call_id)

    def sender_info(self, info: SenderInfo) -> None:
        self.text(info.component_type.wire_value)
        self.text(info.component_uri)
        self._buffer.append(1 if info.knows_receiver else 0)

    def optional_sender_info(self, info: SenderInfo | None) -> None:
        if info is None:
            self._buffer.append(0)
        else:
            self._buffer.append(1)
            self.sender_info(info)

    def method_call(self, msg: MethodCallMessage) -> None:
        self.text(msg.target_uri)
        self.text(msg.method)
        self.optional_call_id(msg.call_id)
        self.optional_sender_info(msg.sender)
        self._buffer.append(1 if msg.method_read_only else 0)
        self.value(tuple(msg.args))
        self.value(tuple(msg.kwargs))

    def reply(self, msg: ReplyMessage) -> None:
        self.optional_call_id(msg.call_id)
        self._buffer.append(1 if msg.is_exception else 0)
        self.text(msg.exception_message)
        self.optional_sender_info(msg.sender)
        self._buffer.append(1 if msg.method_read_only else 0)
        self.value(msg.value)


def message_encoding(message: MethodCallMessage | ReplyMessage) -> bytes:
    """A message's tagged encoding, computed at most once per message.

    The network charges a message by its size and the log writes it
    into a :class:`MessageRecord`; both take these bytes, in whichever
    order they happen (a request is sized before the server logs it, a
    reply is logged before it is sized).  The bytes are memoized on the
    frozen message outside its fields, so ``==``, ``repr`` and hashing
    do not see them.  Sound because a message is never mutated after
    it is built: swizzling gives it its own copy of every mutable
    argument or return value.
    """
    encoded = message._encoding
    if encoded is None:
        writer = Writer()
        if type(message) is MethodCallMessage:
            writer._buffer.append(_I_METHOD_CALL)
            writer.method_call(message)
        else:
            writer._buffer.append(_I_REPLY)
            writer.reply(message)
        encoded = bytes(writer._buffer)
        object.__setattr__(message, "_encoding", encoded)
    return encoded


def _stable_order(items) -> list:
    """Deterministic ordering for sets (sorted by serialized bytes)."""
    return sorted(items, key=encode_value)


_COMPONENT_TYPES = {kind.wire_value: kind for kind in ComponentType}


# --- the read side ----------------------------------------------------
# Module-level readers over ``(data, pos)`` that return
# ``(value, next_pos)``.  A field costs an index, a slice or a struct
# unpack, never a call: each composite (a call id, a sender, a message)
# is read inline by the one function that owns it, and tagged values
# recurse through :func:`read_value` alone.  Anything the writer cannot
# have produced -- a field past the end, an unknown tag, enum or wire
# value, invalid UTF-8, a composite of the wrong shape -- raises
# :class:`LogCorruptionError`.  A slice past the end truncates silently,
# so every sized body is checked against ``len(data)`` explicitly.  A
# one-byte field past the end raises ``IndexError`` and a length prefix
# past it ``struct.error``; each reader catches those once and blames
# the field that ``pos`` still points at, since ``pos`` moves only after
# a field is read.


def truncated(data: bytes, pos: int, length: int) -> LogCorruptionError:
    return LogCorruptionError(
        f"truncated value: wanted {length} bytes at {pos}, "
        f"have {max(0, len(data) - pos)}"
    )


def _bad_utf8(start: int, exc: UnicodeDecodeError) -> LogCorruptionError:
    return LogCorruptionError(f"invalid UTF-8 in value at {start}: {exc}")


def not_a_tuple(value: object, pos: int) -> LogCorruptionError:
    """The error for a value the writer always writes as a tuple."""
    return LogCorruptionError(
        f"expected a tuple, got {type(value).__name__} at {pos}"
    )


def read_u32(data: bytes, pos: int) -> tuple[int, int]:
    try:
        return _U32.unpack_from(data, pos)[0], pos + 4
    except struct.error:
        raise truncated(data, pos, 4) from None


def read_signed(data: bytes, pos: int) -> tuple[int, int]:
    start = pos + 1
    try:
        end = start + data[pos]
    except IndexError:
        raise truncated(data, pos, 1) from None
    if end > len(data):
        raise truncated(data, start, end - start)
    return int.from_bytes(data[start:end], "little", signed=True), end


def read_text(data: bytes, pos: int) -> tuple[str, int]:
    start = pos + 4
    try:
        end = start + _U32.unpack_from(data, pos)[0]
    except struct.error:
        raise truncated(data, pos, 4) from None
    if end > len(data):
        raise truncated(data, start, end - start)
    try:
        return data[start:end].decode(), end
    except UnicodeDecodeError as exc:
        raise _bad_utf8(start, exc) from None


def read_component_type(data: bytes, pos: int) -> tuple[ComponentType, int]:
    wire, pos = read_text(data, pos)
    kind = _COMPONENT_TYPES.get(wire)
    if kind is None:
        raise LogCorruptionError(f"unknown component type {wire!r} at {pos}")
    return kind, pos


_SEQUENCES = frozenset((_I_TUPLE, _I_LIST, _I_SET, _I_FROZENSET))
_NO_KWARGS = _T_TUPLE + _U32.pack(0)


def read_value(data: bytes, pos: int) -> tuple[object, int]:
    """The tagged value at ``pos``."""
    try:
        tag = data[pos]
        pos += 1
        # The tags message arguments and replies use most, first.
        if tag == _I_STR:
            start = pos + 4
            pos = start + _U32.unpack_from(data, pos)[0]
            if pos > len(data):
                raise truncated(data, start, pos - start)
            return data[start:pos].decode(), pos
        if tag == _I_INT:
            start = pos + 1
            pos = start + data[pos]
            if pos > len(data):
                raise truncated(data, start, pos - start)
            return int.from_bytes(data[start:pos], "little", signed=True), pos
        if tag in _SEQUENCES:
            count = _U32.unpack_from(data, pos)[0]
            pos += 4
            items = []
            append = items.append
            for _ in range(count):
                item, pos = read_value(data, pos)
                append(item)
            if tag == _I_TUPLE:
                return tuple(items), pos
            if tag == _I_LIST:
                return items, pos
            try:
                return (set(items) if tag == _I_SET else frozenset(items)), pos
            except TypeError:
                raise LogCorruptionError(
                    f"unhashable set member at {pos}"
                ) from None
        if tag == _I_NONE:
            return None, pos
        if tag == _I_TRUE:
            return True, pos
        if tag == _I_FALSE:
            return False, pos
        if tag == _I_FLOAT:
            if pos + 8 > len(data):
                raise truncated(data, pos, 8)
            return _F64.unpack_from(data, pos)[0], pos + 8
        if tag == _I_BYTES:
            start = pos + 4
            pos = start + _U32.unpack_from(data, pos)[0]
            if pos > len(data):
                raise truncated(data, start, pos - start)
            return data[start:pos], pos
        if tag == _I_DICT:
            count = _U32.unpack_from(data, pos)[0]
            pos += 4
            result = {}
            for _ in range(count):
                key, pos = read_value(data, pos)
                item, pos = read_value(data, pos)
                try:
                    result[key] = item
                except TypeError:
                    raise LogCorruptionError(
                        f"unhashable dict key at {pos}"
                    ) from None
            return result, pos
        if tag == _I_CALL_ID:
            return read_call_id(data, pos)
        if tag == _I_COMPONENT_REF:
            uri, pos = read_text(data, pos)
            return ComponentRef(uri), pos
        if tag == _I_LOCAL_REF:
            lid, pos = read_signed(data, pos)
            return LocalRef(lid), pos
        if tag == _I_COMPONENT_TYPE:
            return read_component_type(data, pos)
        if tag == _I_SENDER_INFO:
            return read_sender_info(data, pos)
        if tag == _I_METHOD_CALL:
            return read_method_call(data, pos)
        if tag == _I_REPLY:
            return read_reply(data, pos)
    except IndexError:
        raise truncated(data, pos, 1) from None
    except struct.error:
        raise truncated(data, pos, 4) from None
    except UnicodeDecodeError as exc:
        raise _bad_utf8(start, exc) from None
    raise LogCorruptionError(f"unknown value tag {tag} at {pos - 1}")


def read_call_id(data: bytes, pos: int) -> tuple[GlobalCallId, int]:
    """A call id: machine, process, component, sequence number."""
    try:
        start = pos + 4
        pos = start + _U32.unpack_from(data, pos)[0]
        if pos > len(data):
            raise truncated(data, start, pos - start)
        machine = data[start:pos].decode()
        start = pos + 1
        pos = start + data[pos]
        if pos > len(data):
            raise truncated(data, start, pos - start)
        process_lid = int.from_bytes(data[start:pos], "little", signed=True)
        start = pos + 1
        pos = start + data[pos]
        if pos > len(data):
            raise truncated(data, start, pos - start)
        component_lid = int.from_bytes(data[start:pos], "little", signed=True)
        start = pos + 1
        pos = start + data[pos]
        if pos > len(data):
            raise truncated(data, start, pos - start)
        seq = int.from_bytes(data[start:pos], "little", signed=True)
    except IndexError:
        raise truncated(data, pos, 1) from None
    except struct.error:
        raise truncated(data, pos, 4) from None
    except UnicodeDecodeError as exc:
        raise _bad_utf8(start, exc) from None
    return GlobalCallId(machine, process_lid, component_lid, seq), pos


def read_sender_info(data: bytes, pos: int) -> tuple[SenderInfo, int]:
    """A sender attachment: component type, URI, knows-receiver flag."""
    try:
        start = pos + 4
        pos = start + _U32.unpack_from(data, pos)[0]
        if pos > len(data):
            raise truncated(data, start, pos - start)
        wire = data[start:pos].decode()
        component_type = _COMPONENT_TYPES.get(wire)
        if component_type is None:
            raise LogCorruptionError(
                f"unknown component type {wire!r} at {pos}"
            )
        start = pos + 4
        pos = start + _U32.unpack_from(data, pos)[0]
        if pos > len(data):
            raise truncated(data, start, pos - start)
        uri = data[start:pos].decode()
        knows_receiver = data[pos] != 0
    except IndexError:
        raise truncated(data, pos, 1) from None
    except struct.error:
        raise truncated(data, pos, 4) from None
    except UnicodeDecodeError as exc:
        raise _bad_utf8(start, exc) from None
    return SenderInfo(component_type, uri, knows_receiver), pos + 1


def read_method_call(data: bytes, pos: int) -> tuple[MethodCallMessage, int]:
    """A method-call message, from its first field (past the tag)."""
    try:
        start = pos + 4
        pos = start + _U32.unpack_from(data, pos)[0]
        if pos > len(data):
            raise truncated(data, start, pos - start)
        target_uri = data[start:pos].decode()
        start = pos + 4
        pos = start + _U32.unpack_from(data, pos)[0]
        if pos > len(data):
            raise truncated(data, start, pos - start)
        method = data[start:pos].decode()
        if data[pos]:
            call_id, pos = read_call_id(data, pos + 1)
        else:
            call_id = None
            pos += 1
        if data[pos]:
            sender, pos = read_sender_info(data, pos + 1)
        else:
            sender = None
            pos += 1
        method_read_only = data[pos] != 0
        pos += 1
    except IndexError:
        raise truncated(data, pos, 1) from None
    except struct.error:
        raise truncated(data, pos, 4) from None
    except UnicodeDecodeError as exc:
        raise _bad_utf8(start, exc) from None
    args, pos = read_value(data, pos)
    if type(args) is not tuple:
        raise not_a_tuple(args, pos)
    if data[pos:pos + 5] == _NO_KWARGS:  # what nearly every call has
        kwargs = ()
        pos += 5
    else:
        kwargs, pos = read_value(data, pos)
        if type(kwargs) is not tuple:
            raise not_a_tuple(kwargs, pos)
        for pair in kwargs:
            if type(pair) is not tuple or len(pair) != 2:
                raise LogCorruptionError(
                    f"keyword argument is not a pair at {pos}"
                )
    return MethodCallMessage(
        target_uri, method, args, kwargs, call_id, sender, method_read_only
    ), pos


def read_reply(data: bytes, pos: int) -> tuple[ReplyMessage, int]:
    """A reply message, from its first field (past the tag)."""
    try:
        if data[pos]:
            call_id, pos = read_call_id(data, pos + 1)
        else:
            call_id = None
            pos += 1
        is_exception = data[pos] != 0
        pos += 1
        start = pos + 4
        pos = start + _U32.unpack_from(data, pos)[0]
        if pos > len(data):
            raise truncated(data, start, pos - start)
        exception_message = data[start:pos].decode()
        if data[pos]:
            sender, pos = read_sender_info(data, pos + 1)
        else:
            sender = None
            pos += 1
        method_read_only = data[pos] != 0
        pos += 1
    except IndexError:
        raise truncated(data, pos, 1) from None
    except struct.error:
        raise truncated(data, pos, 4) from None
    except UnicodeDecodeError as exc:
        raise _bad_utf8(start, exc) from None
    value, pos = read_value(data, pos)
    return ReplyMessage(
        call_id, value, is_exception, exception_message, sender,
        method_read_only,
    ), pos


def encode_value(obj: object) -> bytes:
    """Serialize one value (convenience for tests and size estimates)."""
    writer = Writer()
    writer.value(obj)
    return writer.getvalue()


def decode_value(data: bytes) -> object:
    obj, pos = read_value(data, 0)
    if pos < len(data):
        raise LogCorruptionError(f"{len(data) - pos} trailing bytes after value")
    return obj


def serialized_size(obj: object) -> int:
    """Exact on-wire size of a value (used for network/disk charging);
    a message is sized by its one shared encoding."""
    kind = type(obj)
    if kind is MethodCallMessage or kind is ReplyMessage:
        return len(message_encoding(obj))
    return len(encode_value(obj))


# ----------------------------------------------------------------------
# record framing: [magic u16][length u32][crc32 u32][payload]
# ----------------------------------------------------------------------
_FRAME_MAGIC = 0x9A7C
_FRAME_HEADER = struct.Struct("<HII")


def frame(payload: bytes) -> bytes:
    """Wrap a record payload in the CRC32 frame the log writes."""
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return _FRAME_HEADER.pack(_FRAME_MAGIC, len(payload), crc) + payload


def read_frame(data: bytes, offset: int) -> tuple[bytes, int] | None:
    """Read one frame at ``offset``.

    Returns ``(payload, next_offset)``, or ``None`` for a clean end of
    log (no bytes past ``offset``).  A partial or corrupt frame raises
    :class:`LogCorruptionError`; :class:`FramedFile` treats a *short*
    frame at the tail as a torn write and truncates, but any other
    corruption is surfaced to the operator.
    """
    if offset == len(data):
        return None
    if offset + _FRAME_HEADER.size > len(data):
        raise LogCorruptionError(f"torn frame header at offset {offset}")
    magic, length, crc = _FRAME_HEADER.unpack_from(data, offset)
    if magic != _FRAME_MAGIC:
        raise LogCorruptionError(f"bad frame magic at offset {offset}")
    start = offset + _FRAME_HEADER.size
    end = start + length
    if end > len(data):
        raise LogCorruptionError(f"torn frame payload at offset {offset}")
    payload = bytes(data[start:end])
    if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
        raise LogCorruptionError(f"CRC mismatch at offset {offset}")
    return payload, end


def frame_overhead() -> int:
    return _FRAME_HEADER.size


_HEADER_PLACEHOLDER = bytes(_FRAME_HEADER.size)


def begin_frame(buffer: bytearray) -> int:
    """Reserve a frame header at the end of ``buffer``.

    Zero-copy counterpart of :func:`frame`: the caller encodes the
    payload directly into ``buffer`` (e.g. with ``Writer(out=buffer)``)
    and then calls :func:`end_frame`, which backfills the header in
    place.  Returns the header's offset for :func:`end_frame`.
    """
    offset = len(buffer)
    buffer.extend(_HEADER_PLACEHOLDER)
    return offset


def end_frame(buffer: bytearray, header_offset: int) -> int:
    """Finalize a frame begun with :func:`begin_frame`.

    The payload must be exactly the bytes appended to ``buffer`` since
    ``begin_frame`` returned.  Computes length and CRC32 over them
    without copying and packs the header in place.  Returns the total
    frame length (header + payload).
    """
    payload_start = header_offset + _FRAME_HEADER.size
    length = len(buffer) - payload_start
    # Both views die before returning, so the caller may resize the
    # buffer freely afterwards.
    payload = memoryview(buffer)[payload_start:]
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    payload.release()
    _FRAME_HEADER.pack_into(buffer, header_offset, _FRAME_MAGIC, length, crc)
    return _FRAME_HEADER.size + length


def validate_frames(data: bytes, offset: int = 0) -> tuple[list[int], int]:
    """Walk the frames of ``data`` from ``offset`` without decoding them.

    Checks what :func:`read_frame` checks — magic, bounds, CRC — and
    nothing else: per frame one header unpack, one CRC over the payload
    slice and one append.  Returns ``(starts, stop)``: the offsets of
    the valid frames, in order, and the offset where the walk stopped —
    ``len(data)`` at a clean end, otherwise the first bad frame, where
    :func:`read_frame` raises the error that says why.  The restart
    walk of every framed file goes through here.
    """
    starts: list[int] = []
    append = starts.append
    unpack = _FRAME_HEADER.unpack_from
    crc32 = zlib.crc32
    header = _FRAME_HEADER.size
    size = len(data)
    last = size - header
    while offset <= last:
        magic, length, crc = unpack(data, offset)
        start = offset + header
        end = start + length
        if (
            magic != _FRAME_MAGIC
            or end > size
            or crc32(data[start:end]) != crc
        ):
            break
        append(offset)
        offset = end
    return starts, offset


def iter_frames(
    data: bytes, offset: int = 0
) -> "Iterator[tuple[int, bytes, int]]":
    """Yield ``(offset, payload, next_offset)`` for each frame in
    ``data`` starting at ``offset``.

    A frame-by-frame reference for the walks above (a restart reads a
    file through :class:`FramedFile` instead).  Raises
    :class:`LogCorruptionError` at the first bad frame, exactly like
    :func:`read_frame`.
    """
    while True:
        result = read_frame(data, offset)
        if result is None:
            return
        payload, next_offset = result
        yield offset, payload, next_offset
        offset = next_offset


def frame_error(data: bytes, offset: int) -> LogCorruptionError | None:
    """What :func:`read_frame` raises at ``offset``, or ``None`` if a
    whole, CRC-valid frame starts there."""
    try:
        read_frame(data, offset)
    except LogCorruptionError as exc:
        return exc
    return None


class FramedFile:
    """A stable file of frames, and the one rule for reading it back:
    a process log, the recovery service's registration table or a
    durable log of the queued substrate.  Damage the torn-tail rule
    does not cut off raises :meth:`corruption`, naming the file and the
    position: an LSN for a process log (``log`` is then its name, which
    carries the process and the stream), else a frame index.
    """

    def __init__(self, stable_store, disk, name: str, log: str | None = None):
        self.name = name
        self.log = log
        self.stable = stable_store.open(name, create=True)
        if not disk.has_file(name):
            disk.create_file(name)
        self._disk = disk
        self._disk_file = disk.file(name)

    def append(self, data, cut: int | None = None) -> None:
        """Charge one disk write for ``data`` and append it; with ``cut``,
        a torn write keeps only that many bytes and raises."""
        if cut is not None:
            self.stable.arm_partial_write(cut)
        self._disk.write(self._disk_file, len(data))
        self.stable.append(data)

    def walk(self) -> tuple[bytes, list[int], int]:
        """One read and one :func:`validate_frames`: data, starts, stop."""
        data = self.stable.read()
        return (data, *validate_frames(data))

    def corruption(self, position: int, cause: object) -> LogCorruptionError:
        """``cause`` with the file and the position of the damage."""
        if self.log is None:
            return LogCorruptionError(
                f"file {self.name!r}, frame {position}: {cause}"
            )
        return LogCorruptionError(
            f"log {self.log!r}, LSN {position}: {cause}", lsn=position
        )

    def torn_tail(self, walk, boundaries=()) -> int | None:
        """The torn-tail rule, truncating nothing: where ``walk`` stopped
        if that is a torn tail, or ``None`` at a clean end; other damage
        raises.  A torn write keeps a prefix of what it wrote, so a torn
        tail is a short frame (a header cut off, or a payload running
        past the data) with no whole frame after it; a frame that fits
        but fails its magic or CRC is damage, last or not.  The search
        for a whole frame past a short one tries ``boundaries``, the
        ascending LSNs frames were written at (a process log's index),
        and every frame magic only where they hold none."""
        data, starts, stop = walk
        size = len(data)
        if stop == size:
            return None
        if stop + _FRAME_HEADER.size > size:
            return stop  # a header cut off: no whole frame fits after it
        origin = self.stable.origin
        position = len(starts) if self.log is None else origin + stop
        magic, length, __ = _FRAME_HEADER.unpack_from(data, stop)
        if magic != _FRAME_MAGIC or stop + _FRAME_HEADER.size + length <= size:
            raise self.corruption(position, frame_error(data, stop))
        indexed = [
            lsn - origin
            for lsn in boundaries[bisect_right(boundaries, origin + stop):]
            if lsn - origin < size
        ]
        candidates = indexed or self._magic_offsets(data, stop + 1)
        if not any(frame_error(data, at) is None for at in candidates):
            return stop
        # A whole frame follows, so a payload running past the data is a
        # bad length field, not a torn write.
        raise self.corruption(
            position, f"bad frame length {length} at offset {stop}"
        )

    def repair(self, walk, boundaries=()) -> int | None:
        """Truncate ``walk``'s torn tail (:meth:`torn_tail`, which
        raises for interior damage); return where it cut, if it did."""
        torn = self.torn_tail(walk, boundaries)
        if torn is not None:
            self.stable.truncate(torn)
        return torn

    def replay(self, decode) -> list:
        """Walk and repair the file, then ``decode(payload)`` each frame
        it keeps, in order.  A force wrote every kept frame
        whole, so one that does not decode is damage, last or not: it
        raises :meth:`corruption` at its index."""
        walk = data, starts, stop = self.walk()
        self.repair(walk)
        header = _FRAME_HEADER.size
        records = []
        for index, (start, end) in enumerate(zip(starts, starts[1:] + [stop])):
            try:
                records.append(decode(data[start + header:end]))
            except LogCorruptionError as exc:
                raise self.corruption(index, exc) from None
        return records

    @staticmethod
    def _magic_offsets(data: bytes, offset: int) -> Iterator[int]:
        """Every offset from ``offset`` on where the frame magic occurs."""
        magic = struct.pack("<H", _FRAME_MAGIC)
        offset = data.find(magic, offset)
        while offset >= 0:
            yield offset
            offset = data.find(magic, offset + 1)
