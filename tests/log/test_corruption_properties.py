"""Adversarial corruption properties of the framed log.

A flipped byte anywhere in a framed record must never silently decode to
different data: either the frame fails its integrity checks or (for
flips that cancel out, which CRC32 makes astronomically unlikely at this
scale) the payload is unchanged.  Below the frame, the codec decodes
whatever a CRC-valid payload holds into a value or a typed
:class:`LogCorruptionError`, never a raw exception.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import MessageKind
from repro.common.types import ComponentType
from repro.errors import LogCorruptionError
from repro.log import (
    CreationRecord,
    MessageRecord,
    decode_record,
    decode_value,
    encode_record,
    encode_value,
    frame,
    read_frame,
)
from repro.queues.dlog import DurableLog
from repro.sim import Cluster
from tests.log.strategies import records, wire_values


class TestCorruptionDetection:
    @given(
        payload=st.binary(min_size=1, max_size=200),
        flip_position=st.integers(0, 10_000),
        flip_mask=st.integers(1, 255),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_flips_never_silently_alter_data(
        self, payload, flip_position, flip_mask
    ):
        data = bytearray(frame(payload))
        data[flip_position % len(data)] ^= flip_mask
        try:
            result = read_frame(bytes(data), 0)
        except LogCorruptionError:
            return  # detected — the required outcome
        if result is not None:
            decoded, __ = result
            assert decoded == payload  # only a no-op flip may pass

    @given(
        payloads=st.lists(
            st.binary(min_size=1, max_size=60), min_size=1, max_size=6
        ),
        cut=st.integers(1, 50),
    )
    @settings(max_examples=150, deadline=None)
    def test_truncation_loses_only_a_suffix(self, payloads, cut):
        """Chopping bytes off the end (a torn write) must yield a clean
        prefix of the original record sequence, never reordered or
        altered records."""
        data = b"".join(frame(p) for p in payloads)
        torn = data[: max(0, len(data) - cut)]
        recovered = []
        offset = 0
        while True:
            try:
                result = read_frame(torn, offset)
            except LogCorruptionError:
                break
            if result is None:
                break
            payload, offset = result
            recovered.append(payload)
        assert recovered == payloads[: len(recovered)]

    @given(payload=st.binary(max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_frame_roundtrip_property(self, payload):
        data = frame(payload)
        decoded, next_offset = read_frame(data, 0)
        assert decoded == payload
        assert next_offset == len(data)


class TestRandomBytesNeverLeakRawErrors:
    @given(noise=st.binary(min_size=1, max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_decode_value_fails_cleanly(self, noise):
        try:
            decode_value(noise)
        except LogCorruptionError:
            pass  # the only acceptable failure

    @given(noise=st.binary(min_size=1, max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_decode_record_fails_cleanly(self, noise):
        try:
            decode_record(noise)
        except LogCorruptionError:
            pass


# Bytes a splice may insert: every value tag, every record kind byte, or
# anything at all.
_SPLICES = st.sampled_from(b"NTFIDSBLUMEZKRrYACP" + bytes(range(1, 10))) | (
    st.integers(0, 255)
)


@st.composite
def _corrupted(draw, encodings):
    """A valid encoding with one to three corruptions: a flipped byte, a
    truncation, or a tag spliced in (inserted or overwriting a byte)."""
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


class TestCorruptEncodingsNeverLeakRawErrors:
    """Random noise almost never gets past the first tag, so it cannot
    reach the nested decoders (messages inside records, sender info and
    call ids inside messages, enums inside those).  Corrupting *valid*
    encodings does: whatever the damage, decoding either succeeds or
    raises :class:`LogCorruptionError` — never a raw ``ValueError``,
    ``KeyError`` or ``TypeError``."""

    @given(data=_corrupted(wire_values.map(encode_value)))
    @settings(max_examples=500, deadline=None)
    def test_decode_value_raises_only_corruption(self, data):
        try:
            decode_value(data)
        except LogCorruptionError:
            pass

    @given(data=_corrupted(records.map(encode_record)))
    @settings(max_examples=500, deadline=None)
    def test_decode_record_raises_only_corruption(self, data):
        try:
            decode_record(data)
        except LogCorruptionError:
            pass


def _text(value: bytes) -> bytes:
    return struct.pack("<I", len(value)) + value


class TestUnknownWireValues:
    """An enum or wire value the writer cannot have produced is a typed
    corruption error at the field, wherever the field sits."""

    def test_component_type_value(self):
        with pytest.raises(LogCorruptionError, match="component type 'xyz'"):
            decode_value(b"Y" + _text(b"xyz"))

    def test_component_type_inside_sender_info(self):
        data = b"A" + _text(b"xyz") + _text(b"phoenix://a/p/1") + b"\x00"
        with pytest.raises(LogCorruptionError, match="component type 'xyz'"):
            decode_value(data)

    def test_message_kind(self):
        payload = bytearray(
            encode_record(
                MessageRecord(context_id=1, kind=MessageKind.INCOMING_CALL)
            )
        )
        # [record kind u8][context id: u8 width, 1 byte][message kind u8]
        payload[3] = 99
        with pytest.raises(LogCorruptionError, match="message kind 99"):
            decode_record(bytes(payload))

    def test_creation_record_component_type(self):
        record = CreationRecord(
            context_id=1, uri="u", component_type=ComponentType.FUNCTIONAL
        )
        payload = encode_record(record).replace(
            _text(b"functional"), _text(b"xyz_notatype")
        )
        with pytest.raises(LogCorruptionError, match="component type"):
            decode_record(payload)

    def test_durable_log_replay_raises_at_the_bad_record(self):
        """A CRC-valid last record that does not decode was written
        whole by a force, so it is damage, not a torn tail: the queued
        substrate's replay raises the typed error naming the file and
        the frame, instead of a raw one or a shorter log."""
        machine = Cluster().machine("alpha")
        log = DurableLog(machine, "q")
        log.append("ok", 1)
        log.force()
        stable = machine.stable_store.open("q.qlog")
        stable.append(frame(_text(b"bad") + b"Y" + _text(b"xyz")))
        size = stable.size
        with pytest.raises(
            LogCorruptionError,
            match="file 'q.qlog', frame 1: unknown component type 'xyz'",
        ):
            list(log.records())
        assert stable.size == size
