"""The trace checker does not swallow a corrupt log.

``check_log`` folds a stream's message records.  A torn tail — a bad
frame with nothing decodable after it, which recovery's tail repair
will cut — means the stream is not finished, so only the trace rules
run.  Any other damage raises :class:`LogCorruptionError` naming the
log and the LSN, instead of switching the stream rules (TRC102, TRC104,
TRC105) off without a word.  The corrupt logs are the ones recovery is
held to in ``tests/recovery/test_corrupt_log_recovery.py``.
"""

import pytest

from repro.analysis.trace import ProtocolTrace, TraceEvent
from repro.analysis.trace_check import check_log, check_process
from repro.common import MessageKind
from repro.errors import LogCorruptionError
from tests.recovery.test_corrupt_log_recovery import (
    VICTIM,
    _build,
    _cut_short,
    _rewrite_incoming_call,
    _unknown_kind,
)

pytestmark = pytest.mark.no_conformance_check  # the logs are corrupt

CORRUPTIONS = pytest.mark.parametrize(
    "mutate, nth",
    [(_unknown_kind, 1), (_cut_short, 2)],
    ids=["unknown-kind-byte", "message-cut-short"],
)


def _tear_tail(process, nbytes: int = 3) -> None:
    log = process.log
    stable = log.stable_store.open(f"{log.process_name}.log")
    stable.truncate(stable.size - nbytes)


def _unforced_send() -> ProtocolTrace:
    """A trace whose one event breaks TRC101: a send leaves while the
    log is not stable through its send point."""
    trace = ProtocolTrace()
    trace.record(TraceEvent(
        kind=MessageKind.OUTGOING_CALL, end_lsn=100, stable_lsn=50,
    ))
    return trace


@CORRUPTIONS
def test_interior_corruption_raises_with_the_log_and_the_lsn(mutate, nth):
    runtime, process, stores = _build(on_demand=False)
    process.crash()
    lsn = _rewrite_incoming_call(process, VICTIM, nth, mutate)
    with pytest.raises(LogCorruptionError) as raised:
        check_process(process)
    assert f"LSN {lsn}:" in str(raised.value)
    assert process.log.process_name in str(raised.value)
    assert raised.value.lsn == lsn


@CORRUPTIONS
def test_a_torn_tail_does_not_excuse_damage_before_it(mutate, nth):
    runtime, process, stores = _build(on_demand=False)
    process.crash()
    lsn = _rewrite_incoming_call(process, VICTIM, nth, mutate)
    _tear_tail(process)
    assert process.log.torn_tail_lsn() > lsn
    with pytest.raises(LogCorruptionError, match=f"LSN {lsn}:"):
        check_process(process)


def test_a_torn_tail_still_gets_the_trace_checks():
    runtime, process, stores = _build(on_demand=False)
    process.crash()
    # Control: on the intact log every stable message record is
    # unclaimed by this trace (TRC104), next to its TRC101 break.
    found = {v.invariant for v in check_log(process.log, _unforced_send())}
    assert found == {"TRC101", "TRC104"}
    _tear_tail(process)
    assert process.log.torn_tail_lsn() is not None
    # Torn: the stream rules wait for repair, the trace rules still run.
    found = [v.invariant for v in check_log(process.log, _unforced_send())]
    assert found == ["TRC101"]
    assert check_process(process) == []
    # ... and recovery's repair cuts exactly there.
    torn = process.log.torn_tail_lsn()
    runtime.ensure_recovered(process)
    assert process.log.stable_lsn >= torn
    assert process.log.torn_tail_lsn() is None
    assert check_process(process) == []
