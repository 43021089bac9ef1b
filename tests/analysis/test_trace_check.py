"""Trace-checker coverage: every TRC invariant fires on a corrupted
log/trace and stays quiet on a clean one, always reporting the LSN.

The tests drive a raw :class:`LogManager` (no runtime) and hand-build
the :class:`ProtocolTrace` the policy would have produced, then corrupt
one or the other: drop a force, reorder a message-2 record, claim the
wrong record, diverge a replay.
"""

from __future__ import annotations

import pytest

from repro.analysis.trace import ProtocolTrace, TraceEvent
from repro.analysis.trace_check import (
    INVARIANTS,
    check_log,
    record_signature,
)
from repro.common.ids import GlobalCallId
from repro.common.messages import (
    MessageKind,
    MethodCallMessage,
    ReplyMessage,
)
from repro.common.types import ComponentType
from repro.log import LogManager, MessageRecord
from repro.sim import Cluster

CALL = GlobalCallId(
    machine="alpha", process_lid=1, component_lid=1, seq=0
)


@pytest.fixture
def log():
    machine = Cluster().machine("alpha")
    return LogManager("trace-check", machine.disk, machine.stable_store)


def msg1(call_id=CALL, args=(), context_id=1) -> MessageRecord:
    return MessageRecord(
        context_id=context_id,
        kind=MessageKind.INCOMING_CALL,
        message=MethodCallMessage(
            target_uri="phoenix://alpha/p/1",
            method="m",
            args=args,
            call_id=call_id,
        ),
    )


def msg2_short(context_id=1) -> MessageRecord:
    return MessageRecord(
        context_id=context_id,
        kind=MessageKind.REPLY_TO_INCOMING,
        message=None,
        short=True,
    )


def msg4(call_id=CALL, value=None, context_id=1) -> MessageRecord:
    return MessageRecord(
        context_id=context_id,
        kind=MessageKind.REPLY_FROM_OUTGOING,
        message=ReplyMessage(call_id=call_id, value=value),
    )


def event_for(log, kind, lsn, **overrides) -> TraceEvent:
    """An event snapshotting the log's current boundaries."""
    fields = dict(
        kind=kind,
        wrote_record=True,
        record_lsn=lsn,
        end_lsn=log.end_lsn,
        stable_lsn=log.stable_lsn,
    )
    fields.update(overrides)
    return TraceEvent(**fields)


def only(violations, invariant):
    return [v for v in violations if v.invariant == invariant]


class TestTRC101DroppedForce:
    def test_send_without_covering_force_is_reported_with_lsn(self, log):
        trace = ProtocolTrace()
        lsn = log.append(msg1())
        trace.record(event_for(log, MessageKind.INCOMING_CALL, lsn))
        # Corrupt the protocol: the outgoing call leaves while the
        # message-1 record is still volatile (the force was dropped).
        send_point = log.end_lsn
        trace.record(TraceEvent(
            kind=MessageKind.OUTGOING_CALL,
            end_lsn=send_point,
            stable_lsn=log.stable_lsn,
        ))
        log.force()  # flushed later; too late for the send
        found = only(check_log(log, trace), "TRC101")
        assert len(found) == 1
        assert found[0].lsn == send_point
        assert "unforced" in found[0].message

    def test_properly_forced_send_is_quiet(self, log):
        trace = ProtocolTrace()
        lsn = log.append(msg1())
        trace.record(event_for(log, MessageKind.INCOMING_CALL, lsn))
        log.force()
        trace.record(TraceEvent(
            kind=MessageKind.OUTGOING_CALL,
            end_lsn=log.end_lsn,
            stable_lsn=log.stable_lsn,
        ))
        assert check_log(log, trace) == []


class TestTRC102ExternalOrdering:
    def test_reordered_message2_is_reported_with_lsn(self, log):
        # Stream corruption: the short reply record precedes the
        # external message-1 record it answers.
        short_lsn = log.append(msg2_short())
        log.append(msg1(call_id=None))
        log.force()
        found = only(check_log(log), "TRC102")
        assert len(found) == 1
        assert found[0].lsn == short_lsn
        assert "no preceding external message-1" in found[0].message

    def test_ordered_external_pair_is_quiet(self, log):
        log.append(msg1(call_id=None))
        log.append(msg2_short())
        log.force()
        assert check_log(log) == []

    def test_unforced_external_message1_event_is_reported(self, log):
        trace = ProtocolTrace()
        lsn = log.append(msg1(call_id=None))
        # Algorithm 3 requires the force; this event skipped it.
        trace.record(event_for(
            log, MessageKind.INCOMING_CALL, lsn,
            peer_type=ComponentType.EXTERNAL,
        ))
        found = only(check_log(log, trace), "TRC102")
        assert found and found[0].lsn == lsn


class TestTRC103StatelessLogging:
    def test_readonly_context_writing_a_record_is_reported(self, log):
        trace = ProtocolTrace()
        lsn = log.append(msg1())
        log.force()
        trace.record(event_for(
            log, MessageKind.INCOMING_CALL, lsn,
            context_type=ComponentType.READ_ONLY,
            forced=True,
        ))
        found = only(check_log(log, trace), "TRC103")
        assert found and found[0].lsn == lsn
        assert "log nothing" in found[0].message

    def test_forced_readonly_reply_is_reported(self, log):
        trace = ProtocolTrace()
        lsn = log.append(msg4())
        log.force()
        # Algorithm 5 logs message 4 *unforced*; this event forced it.
        trace.record(event_for(
            log, MessageKind.REPLY_FROM_OUTGOING, lsn,
            peer_type=ComponentType.READ_ONLY,
            forced=True,
        ))
        found = only(check_log(log, trace), "TRC103")
        assert found and found[0].lsn == lsn

    def test_unforced_readonly_reply_is_quiet(self, log):
        trace = ProtocolTrace()
        lsn = log.append(msg4())
        trace.record(event_for(
            log, MessageKind.REPLY_FROM_OUTGOING, lsn,
            peer_type=ComponentType.READ_ONLY,
        ))
        log.force()
        assert check_log(log, trace) == []


class TestTRC104TraceStreamAgreement:
    def test_kind_mismatch_is_reported(self, log):
        trace = ProtocolTrace()
        lsn = log.append(msg1())
        log.force()
        # The trace claims a message-4 record lives at this LSN.
        trace.record(event_for(
            log, MessageKind.REPLY_FROM_OUTGOING, lsn
        ))
        found = only(check_log(log, trace), "TRC104")
        assert found and found[0].lsn == lsn
        assert "does not match" in found[0].message

    def test_unclaimed_stable_record_is_reported(self, log):
        lsn = log.append(msg1())
        log.force()
        found = only(check_log(log, ProtocolTrace()), "TRC104")
        assert found and found[0].lsn == lsn
        assert "not produced by any surviving" in found[0].message

    def test_crash_forgives_lost_volatile_records(self, log):
        trace = ProtocolTrace()
        lsn = log.append(msg1())
        trace.record(event_for(log, MessageKind.INCOMING_CALL, lsn))
        # Crash before any force: the record is legitimately gone.
        trace.note_crash(log.stable_lsn)
        log = LogManager(log.process_name, log.disk, log.stable_store)
        assert check_log(log, trace) == []


class TestTRC105ReplayDeterminism:
    def test_diverging_replay_is_reported_with_lsn(self, log):
        log.append(msg1(args=(1,)))
        second = log.append(msg1(args=(2,)))  # same call ID, new args
        log.force()
        trace = None  # stream-only check
        found = only(check_log(log, trace), "TRC105")
        assert len(found) == 1
        assert found[0].lsn == second
        assert "replay is not regenerating" in found[0].message

    def test_identical_retry_records_are_quiet(self, log):
        log.append(msg1(args=(1,)))
        log.append(msg1(args=(1,)))
        log.force()
        assert only(check_log(log), "TRC105") == []

    def test_record_signature_distinguishes_streams(self):
        def stream(args):
            machine = Cluster().machine("alpha")
            log = LogManager(
                "sig", machine.disk, machine.stable_store
            )
            log.append(msg1(args=args))
            log.force()
            return record_signature(log)

        assert stream((1,)) == stream((1,))
        # the fingerprint covers LSNs/kinds, not payloads
        assert len(stream((1,))) == 1


class TestEveryInvariantIsCovered:
    def test_invariant_table_matches_tests(self):
        # TRC106 (static force bounds) is covered by its own suite,
        # tests/analysis/test_force_bounds.py; TRC107/TRC108 (causal
        # invariants over vector-clocked traces) by
        # tests/analysis/test_vector_clock.py; TRC109 (LogPlan budget
        # conformance) by tests/analysis/test_plan.py
        assert sorted(INVARIANTS) == [
            "TRC101", "TRC102", "TRC103", "TRC104", "TRC105", "TRC106",
            "TRC107", "TRC108", "TRC109",
        ]
