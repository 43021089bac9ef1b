"""Binary codec: round trips, framing, corruption detection."""

import pytest
from hypothesis import given, settings

from repro.common import (
    ComponentRef,
    GlobalCallId,
    MethodCallMessage,
    ReplyMessage,
    SenderInfo,
)
from repro.common.ids import LocalRef
from repro.common.types import ComponentType
from repro.errors import LogCorruptionError, SerializationError
from repro.log import (
    decode_record,
    decode_value,
    encode_record,
    encode_value,
    frame,
    read_frame,
    serialized_size,
)
from repro.log.records import _KIND_BY_CLASS
from tests.log.strategies import RECORDS, records, wire_values


class TestScalars:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, 1, -1, 2**70, -(2**70), 0.0, -1.5, 3.14,
         "", "hello", "ünïcodé ≠", b"", b"\x00\xff", [], [1, [2, [3]]],
         (), (1, "two", 3.0), {}, {"k": [1, 2]}, {1: {2: {3: None}}},
         set(), {1, 2, 3}, frozenset({"a", "b"})],
    )
    def test_roundtrip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_tuple_list_distinguished(self):
        assert type(decode_value(encode_value((1, 2)))) is tuple
        assert type(decode_value(encode_value([1, 2]))) is list

    def test_set_frozenset_distinguished(self):
        assert type(decode_value(encode_value({1}))) is set
        assert type(decode_value(encode_value(frozenset({1})))) is frozenset

    def test_bool_not_confused_with_int(self):
        assert decode_value(encode_value(True)) is True
        assert decode_value(encode_value(1)) == 1
        assert decode_value(encode_value(1)) is not True

    def test_unsupported_type_rejected(self):
        with pytest.raises(SerializationError):
            encode_value(object())

    def test_nested_unsupported_type_rejected(self):
        with pytest.raises(SerializationError):
            encode_value({"ok": [1, 2, object()]})

    def test_serialized_size_matches_encoding(self):
        value = {"a": [1, 2, 3], "b": "text"}
        assert serialized_size(value) == len(encode_value(value))


class TestWireTypes:
    def test_call_id_roundtrip(self):
        call_id = GlobalCallId("alpha", 3, 7, 42)
        assert decode_value(encode_value(call_id)) == call_id

    def test_component_ref_roundtrip(self):
        ref = ComponentRef("phoenix://alpha/p1/3")
        assert decode_value(encode_value(ref)) == ref

    def test_local_ref_roundtrip(self):
        assert decode_value(encode_value(LocalRef(300001))) == LocalRef(300001)

    def test_component_type_roundtrip(self):
        for kind in ComponentType:
            assert decode_value(encode_value(kind)) is kind

    def test_sender_info_roundtrip(self):
        info = SenderInfo(
            ComponentType.READ_ONLY, "phoenix://a/p/1", knows_receiver=True
        )
        assert decode_value(encode_value(info)) == info

    def test_method_call_roundtrip(self):
        message = MethodCallMessage(
            target_uri="phoenix://beta/srv/1",
            method="put",
            args=("key", [1, 2], {"nested": (3,)}),
            call_id=GlobalCallId("alpha", 1, 2, 3),
            sender=SenderInfo(ComponentType.PERSISTENT, "phoenix://a/c/1"),
            method_read_only=True,
        )
        assert decode_value(encode_value(message)) == message

    def test_external_method_call_roundtrip(self):
        message = MethodCallMessage(
            target_uri="phoenix://beta/srv/1", method="ping", args=(1,)
        )
        decoded = decode_value(encode_value(message))
        assert decoded == message
        assert decoded.call_id is None

    def test_reply_roundtrip(self):
        reply = ReplyMessage(
            call_id=GlobalCallId("alpha", 1, 2, 3),
            value={"result": [1.5, None]},
            method_read_only=True,
        )
        assert decode_value(encode_value(reply)) == reply

    def test_exception_reply_roundtrip(self):
        reply = ReplyMessage(
            call_id=None,
            is_exception=True,
            exception_message="ValueError: boom",
        )
        decoded = decode_value(encode_value(reply))
        assert decoded.is_exception
        assert decoded.exception_message == "ValueError: boom"


class TestPropertyRoundtrip:
    """The writer is the reference the reader is pinned to.  ``==``
    cannot tell ``True`` from ``1`` or a set from a frozenset, but the
    encoding can: every value carries its type tag, so re-encoding what
    was decoded must give back the very same bytes."""

    @given(wire_values)
    @settings(max_examples=300, deadline=None)
    def test_any_supported_value_roundtrips(self, value):
        data = encode_value(value)
        decoded = decode_value(data)
        assert decoded == value
        assert encode_value(decoded) == data

    @given(wire_values)
    @settings(max_examples=50, deadline=None)
    def test_encoding_is_deterministic(self, value):
        assert encode_value(value) == encode_value(value)

    @given(records)
    @settings(max_examples=300, deadline=None)
    def test_every_record_class_roundtrips(self, record):
        payload = encode_record(record)
        decoded = decode_record(payload)
        assert decoded == record
        assert type(decoded) is type(record)
        assert encode_record(decoded) == payload

    def test_strategies_cover_every_record_class(self):
        assert set(RECORDS) == set(_KIND_BY_CLASS)


class TestFraming:
    def test_frame_roundtrip(self):
        payload = b"hello record"
        data = frame(payload)
        got, next_offset = read_frame(data, 0)
        assert got == payload
        assert next_offset == len(data)

    def test_multiple_frames(self):
        data = frame(b"one") + frame(b"two") + frame(b"three")
        payloads = []
        offset = 0
        while True:
            result = read_frame(data, offset)
            if result is None:
                break
            payload, offset = result
            payloads.append(payload)
        assert payloads == [b"one", b"two", b"three"]

    def test_clean_end_returns_none(self):
        data = frame(b"x")
        assert read_frame(data, len(data)) is None

    def test_torn_header_detected(self):
        data = frame(b"payload")[:4]
        with pytest.raises(LogCorruptionError):
            read_frame(data, 0)

    def test_torn_payload_detected(self):
        data = frame(b"payload")[:-2]
        with pytest.raises(LogCorruptionError):
            read_frame(data, 0)

    def test_flipped_bit_detected(self):
        data = bytearray(frame(b"payload"))
        data[-1] ^= 0x01
        with pytest.raises(LogCorruptionError):
            read_frame(bytes(data), 0)

    def test_bad_magic_detected(self):
        data = bytearray(frame(b"payload"))
        data[0] ^= 0xFF
        with pytest.raises(LogCorruptionError):
            read_frame(bytes(data), 0)
