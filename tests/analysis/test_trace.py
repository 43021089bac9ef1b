"""The ``TraceEvent`` contract: immutable, with fixed fields and repr.

Determinism gates compare ``repr`` of whole traces, and the conformance
checker derives changed copies of events, so the field names, their
order, their defaults and the ``TraceEvent(kind=…, …)`` repr are part
of the interface.
"""

from __future__ import annotations

import pytest

from repro.analysis.trace import NO_LSN, TraceEvent
from repro.common.messages import MessageKind
from repro.common.types import ComponentType

FIELDS = {
    "context_id": 1,
    "context_type": ComponentType.PERSISTENT,
    "peer_type": None,
    "method_read_only": False,
    "optimized": True,
    "read_only_opt": True,
    "multicall_skip": False,
    "wrote_record": False,
    "forced": False,
    "short": False,
    "record_lsn": NO_LSN,
    "end_lsn": 0,
    "stable_lsn": 0,
    "interrupted": False,
    "method": None,
    "session": None,
    "commit_lsn": None,
    "vc": None,
    "replaying": False,
}


def test_field_names_order_and_defaults():
    event = TraceEvent(kind=MessageKind.INCOMING_CALL)
    assert TraceEvent._fields == ("kind", *FIELDS)
    for name, default in FIELDS.items():
        assert getattr(event, name) == default, name


def test_assigning_a_field_raises():
    event = TraceEvent(kind=MessageKind.OUTGOING_CALL)
    with pytest.raises(AttributeError):
        event.forced = True
    with pytest.raises(AttributeError):
        event.unknown = 1


def test_kind_is_required():
    with pytest.raises(TypeError):
        TraceEvent()


def test_repr_names_every_field_in_order():
    event = TraceEvent(
        kind=MessageKind.REPLY_TO_INCOMING, forced=True, vc=(1, 0)
    )
    assert repr(event) == (
        "TraceEvent(kind=<MessageKind.REPLY_TO_INCOMING: 2>, context_id=1, "
        "context_type=<ComponentType.PERSISTENT: 'persistent'>, "
        "peer_type=None, method_read_only=False, optimized=True, "
        "read_only_opt=True, multicall_skip=False, wrote_record=False, "
        "forced=True, short=False, record_lsn=-1, end_lsn=0, stable_lsn=0, "
        "interrupted=False, method=None, session=None, commit_lsn=None, "
        "vc=(1, 0), replaying=False)"
    )


def test_replace_derives_a_changed_copy():
    event = TraceEvent(kind=MessageKind.INCOMING_CALL, session=3)
    changed = event._replace(kind=MessageKind.REPLY_TO_INCOMING, session=None)
    assert changed.kind is MessageKind.REPLY_TO_INCOMING
    assert changed.session is None
    assert event.session == 3
    assert changed == TraceEvent(kind=MessageKind.REPLY_TO_INCOMING)
