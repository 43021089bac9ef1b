"""Hypothesis strategies over everything the log codec writes: tagged
values (wire types included) and one strategy per record class."""

from hypothesis import strategies as st

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
)

_names = st.text(max_size=12)
_ids = st.integers(-(2**40), 2**40)
_lsns = st.integers(-1, 2**40)
_component_types = st.sampled_from(list(ComponentType))

call_ids = st.builds(
    GlobalCallId, st.text(max_size=8), st.integers(0, 99),
    st.integers(0, 99), st.integers(0, 999),
)
senders = st.builds(SenderInfo, _component_types, _names, st.booleans())

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**100), max_value=2**100),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
    call_ids,
    st.builds(ComponentRef, st.just("phoenix://a/p/1")),
    st.builds(LocalRef, _ids),
    _component_types,
    senders,
)

#: Plain data and wire types, nested in every container the codec has.
values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(
            st.one_of(st.text(max_size=8), st.integers(-100, 100)),
            children,
            max_size=4,
        ),
        st.lists(st.integers(-50, 50), max_size=4, unique=True).map(set),
        st.lists(st.integers(-50, 50), max_size=4, unique=True).map(
            frozenset
        ),
    ),
    max_leaves=20,
)

method_calls = st.builds(
    MethodCallMessage,
    target_uri=_names,
    method=_names,
    args=st.lists(values, max_size=3).map(tuple),
    kwargs=st.dictionaries(_names, values, max_size=2).map(
        MethodCallMessage.pack_kwargs
    ),
    call_id=st.none() | call_ids,
    sender=st.none() | senders,
    method_read_only=st.booleans(),
)
replies = st.builds(
    ReplyMessage,
    call_id=st.none() | call_ids,
    value=values,
    is_exception=st.booleans(),
    exception_message=_names,
    sender=st.none() | senders,
    method_read_only=st.booleans(),
)

#: Everything ``encode_value`` accepts, the two message classes included.
wire_values = st.one_of(values, method_calls, replies)

_caller_keys = st.tuples(st.text(max_size=8), st.integers(0, 99),
                         st.integers(0, 99))
_last_calls = st.lists(
    st.builds(LastCallEntrySnapshot, _caller_keys, call_ids, _lsns),
    max_size=3,
).map(tuple)

#: One strategy per record class (every class the log writes).
RECORDS = {
    MessageRecord: st.builds(
        MessageRecord,
        context_id=_ids,
        kind=st.sampled_from(list(MessageKind)),
        message=st.none() | method_calls | replies,
        short=st.booleans(),
    ),
    CreationRecord: st.builds(
        CreationRecord,
        context_id=_ids,
        component_lid=_ids,
        class_name=_names,
        args=st.lists(values, max_size=3).map(tuple),
        uri=_names,
        component_type=_component_types,
        registered_name=_names,
    ),
    ContextStateRecord: st.builds(
        ContextStateRecord,
        context_id=_ids,
        uri=_names,
        incoming_calls_handled=st.integers(0, 2**31),
        snapshots=st.lists(
            st.builds(
                ComponentStateSnapshot,
                _ids,
                _names,
                _component_types,
                st.dictionaries(_names, values, max_size=3),
                st.integers(0, 2**31),
            ),
            max_size=3,
        ).map(tuple),
        last_calls=_last_calls,
    ),
    LastCallReplyRecord: st.builds(
        LastCallReplyRecord,
        context_id=_ids,
        caller_key=_caller_keys,
        call_id=call_ids,
        reply=replies,
    ),
    BeginCheckpointRecord: st.builds(BeginCheckpointRecord, context_id=_ids),
    CheckpointContextTableRecord: st.builds(
        CheckpointContextTableRecord,
        context_id=_ids,
        entries=st.lists(
            st.builds(CheckpointContextEntry, _ids, _names, _lsns, _lsns),
            max_size=3,
        ).map(tuple),
    ),
    CheckpointRemoteTypeRecord: st.builds(
        CheckpointRemoteTypeRecord,
        context_id=_ids,
        entries=st.lists(
            st.tuples(_names, _component_types), max_size=3
        ).map(tuple),
    ),
    CheckpointLastCallRecord: st.builds(
        CheckpointLastCallRecord, context_id=_ids, entries=_last_calls
    ),
    EndCheckpointRecord: st.builds(
        EndCheckpointRecord, context_id=_ids, begin_lsn=_lsns
    ),
}

records = st.one_of(*RECORDS.values())
