"""What the decoder builds: constructor-built records, and one shared
instance per content-free payload.

``log/records.py::decode_record`` builds every record through its
class's own positional ``__init__``, so a decoded record costs the
memory of one built by hand (an instance whose ``__dict__`` is filled
in afterwards keeps a dictionary of its own and costs far more).  A
message record without a message (Algorithm 3's short reply) is frozen
and carries nothing but its header, so its payload decodes to one
shared instance; a record that carries a message is built afresh every
time.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.common.ids import GlobalCallId
from repro.common.messages import MessageKind, MethodCallMessage, ReplyMessage
from repro.log import MessageRecord, decode_record, encode_record

RECORDS = 1_000


def _fresh(text: str) -> str:
    """An equal string that is a new object, as a decoded one is."""
    return text[:1] + text[1:]


def _incoming_call(n: int) -> MessageRecord:
    return MessageRecord(
        n % 8,
        MessageKind.INCOMING_CALL,
        MethodCallMessage(
            _fresh(f"phoenix://beta/perf/{n}"),
            _fresh("ping"),
            (_fresh(f"payload-{n:06d}"),),
        ),
        False,
    )


def _traced_bytes(build) -> int:
    """Bytes still allocated after ``build()``, whose result is kept."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(kept) == RECORDS
    return used


def test_decoded_calls_cost_no_more_than_constructed_ones():
    payloads = [encode_record(_incoming_call(n)) for n in range(RECORDS)]
    decoded = _traced_bytes(lambda: [decode_record(p) for p in payloads])
    built = _traced_bytes(
        lambda: [_incoming_call(n) for n in range(RECORDS)]
    )
    # Per record, to the byte: the interpreter keeps a few temporaries
    # of the decode on its free lists (measured: 136 bytes in all),
    # while a ``__dict__`` filled after ``object.__new__`` costs about
    # 320 bytes more per record.
    assert decoded // RECORDS <= built // RECORDS


def test_a_short_reply_decodes_to_one_shared_record():
    payload = encode_record(
        MessageRecord(3, MessageKind.REPLY_TO_INCOMING, None, True)
    )
    first = decode_record(payload)
    assert first == MessageRecord(3, MessageKind.REPLY_TO_INCOMING, None, True)
    assert decode_record(bytes(payload)) is first
    # another header is another record
    other = encode_record(
        MessageRecord(4, MessageKind.REPLY_TO_INCOMING, None, True)
    )
    assert decode_record(other) is not first
    assert decode_record(other).context_id == 4


def test_a_record_with_a_message_is_never_shared():
    call = GlobalCallId("alpha", 1, 1, 1)
    for record in (
        _incoming_call(1),
        MessageRecord(
            1,
            MessageKind.REPLY_FROM_OUTGOING,
            ReplyMessage(call, None),  # ends with the same None tag
            False,
        ),
    ):
        payload = encode_record(record)
        first = decode_record(payload)
        again = decode_record(payload)
        assert first == again == record
        assert again is not first
        assert again.message is not first.message
