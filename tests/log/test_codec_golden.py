"""Golden bytes for the codec.

The round-trip and determinism properties in ``test_serialization.py``
pin the reader to the writer, so a Writer and Reader that change
together pass them.  This corpus pins the writer to bytes: every case
below was encoded once and committed as hex in ``codec_golden.json``,
and the codec must keep producing exactly those bytes — the log format
on stable storage and every simulated byte count depend on them.

The corpus holds ``encode_value`` of at least one value per tag (with
the signed-integer length boundaries, non-ASCII text, and sets in
their stable order) and ``encode_record`` of every record class.  Do
not regenerate it to make a change pass: a moved byte is a format
change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.common import (
    ComponentRef,
    GlobalCallId,
    MessageKind,
    MethodCallMessage,
    ReplyMessage,
    SenderInfo,
)
from repro.common.ids import LocalRef
from repro.common.types import ComponentType
from repro.errors import SerializationError
from repro.log import encode_record, encode_value
from repro.log.records import (
    _KIND_BY_CLASS,
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
)

CORPUS = Path(__file__).with_name("codec_golden.json")

CALL_ID = GlobalCallId("alpha", 3, 7, 42)
SENDER = SenderInfo(ComponentType.PERSISTENT, "phoenix://alpha/p/1", True)
CALL = MethodCallMessage(
    target_uri="phoenix://beta/srv/1",
    method="put",
    args=("key", [1, 2], {"nested": (3,)}, ComponentRef("phoenix://b/q/2")),
    kwargs=(("flag", True), ("limit", 300)),
    call_id=CALL_ID,
    sender=SENDER,
    method_read_only=True,
)
EXTERNAL_CALL = MethodCallMessage(
    target_uri="phoenix://beta/srv/1", method="ping", args=(1,)
)
REPLY = ReplyMessage(
    call_id=CALL_ID,
    value={"result": [1.5, None], "count": -129},
    sender=SenderInfo(ComponentType.READ_ONLY, "phoenix://beta/srv/1"),
    method_read_only=True,
)
EXCEPTION_REPLY = ReplyMessage(
    call_id=None, is_exception=True, exception_message="ValueError: bööm"
)
LAST_CALL = LastCallEntrySnapshot(("alpha", 3, 7), CALL_ID, 4096)

VALUES: dict[str, object] = {
    "none": None,
    "true": True,
    "false": False,
    "int_0": 0,
    "int_1": 1,
    "int_-1": -1,
    "int_-127": -127,
    "int_-128": -128,
    "int_-129": -129,
    "int_127": 127,
    "int_128": 128,
    "int_255": 255,
    "int_2**63": 2**63,
    "int_-(2**63)": -(2**63),
    "int_64_byte_max": 2**511 - 1,
    "int_64_byte_min": -(2**511 - 1),
    "float": 3.14,
    "float_negative_zero": -0.0,
    "str_empty": "",
    "str_ascii": "hello",
    "str_non_ascii": "ünïcodé ≠ 日本 🎉",
    "bytes": b"\x00\xff",
    "bytes_empty": b"",
    "bytearray": bytearray(b"ab"),
    "list": [1, [2, "x"], []],
    "tuple": (1, "two", 3.0, None, (True,)),
    "dict": {"k": [1, 2], 3: None, "nested": {"a": ()}},
    "set": {3, 1, 2, -5, 300, "a"},
    "frozenset": frozenset({"b", "a", 128, -1}),
    "call_id": CALL_ID,
    "component_ref": ComponentRef("phoenix://alpha/p1/3"),
    "local_ref": LocalRef(300001),
    **{f"component_type_{kind.name.lower()}": kind for kind in ComponentType},
    "sender_info": SENDER,
    "method_call_with_sender": CALL,
    "method_call_without_sender": EXTERNAL_CALL,
    "reply_with_sender": REPLY,
    "reply_exception_without_sender": EXCEPTION_REPLY,
    "message_inside_value": (EXTERNAL_CALL, [EXCEPTION_REPLY]),
}

RECORDS: dict[str, object] = {
    "message_call": MessageRecord(
        1, MessageKind.INCOMING_CALL, CALL, False
    ),
    "message_external_call": MessageRecord(
        300001, MessageKind.OUTGOING_CALL, EXTERNAL_CALL, False
    ),
    "message_reply": MessageRecord(
        2, MessageKind.REPLY_FROM_OUTGOING, REPLY, False
    ),
    "message_short": MessageRecord(
        1, MessageKind.REPLY_TO_INCOMING, None, True
    ),
    "creation": CreationRecord(
        context_id=4,
        component_lid=4,
        class_name="BookSeller",
        args=(ComponentRef("phoenix://beta/db/1"), "ünï", 128),
        uri="phoenix://alpha/shop/4",
        component_type=ComponentType.SUBORDINATE,
        registered_name="seller",
    ),
    "context_state": ContextStateRecord(
        context_id=1,
        uri="phoenix://alpha/p/1",
        incoming_calls_handled=400,
        snapshots=(
            ComponentStateSnapshot(
                1, "Owner", ComponentType.PERSISTENT,
                {"count": 7, "tally": LocalRef(100001), "tags": {"x", "y"}},
                12,
            ),
            ComponentStateSnapshot(
                100001, "Tally", ComponentType.SUBORDINATE, {"entries": []}, 0
            ),
        ),
        last_calls=(LAST_CALL,),
    ),
    "last_call_reply": LastCallReplyRecord(
        context_id=1,
        caller_key=("alpha", 3, 7),
        call_id=CALL_ID,
        reply=REPLY,
    ),
    "last_call_reply_exception": LastCallReplyRecord(
        context_id=2,
        caller_key=("beta", 1, 1),
        call_id=GlobalCallId("beta", 1, 1, 128),
        reply=EXCEPTION_REPLY,
    ),
    "begin_checkpoint": BeginCheckpointRecord(context_id=-1),
    "checkpoint_contexts": CheckpointContextTableRecord(
        context_id=-1,
        entries=(
            CheckpointContextEntry(1, "phoenix://alpha/p/1", -1, 0),
            CheckpointContextEntry(2, "phoenix://alpha/p/2", 70000, 128),
        ),
    ),
    "checkpoint_remote_types": CheckpointRemoteTypeRecord(
        context_id=-1,
        entries=(
            ("phoenix://beta/srv/1", ComponentType.READ_ONLY),
            ("phoenix://beta/srv/2", ComponentType.FUNCTIONAL),
        ),
    ),
    "checkpoint_last_calls": CheckpointLastCallRecord(
        context_id=-1, entries=(LAST_CALL,)
    ),
    "end_checkpoint": EndCheckpointRecord(context_id=-1, begin_lsn=2**40),
}


def current_corpus() -> dict[str, dict[str, str]]:
    """Encode every case with the codec as it is now."""
    return {
        "values": {
            name: encode_value(value).hex() for name, value in VALUES.items()
        },
        "records": {
            name: encode_record(record).hex()
            for name, record in RECORDS.items()
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(CORPUS.read_text())


def test_corpus_covers_every_case(golden):
    assert set(golden["values"]) == set(VALUES)
    assert set(golden["records"]) == set(RECORDS)


def test_corpus_covers_every_record_class():
    assert {type(record) for record in RECORDS.values()} == set(_KIND_BY_CLASS)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_bytes_are_golden(golden, name):
    assert encode_value(VALUES[name]).hex() == golden["values"][name]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_bytes_are_golden(golden, name):
    assert encode_record(RECORDS[name]).hex() == golden["records"][name]


def test_one_past_the_64_byte_limit_is_rejected():
    with pytest.raises(SerializationError, match="too large"):
        encode_value(2**511)
    with pytest.raises(SerializationError, match="too large"):
        encode_value(-(2**511))
