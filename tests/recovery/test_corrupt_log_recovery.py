"""Recovery over a log with a CRC-valid but unreadable record.

Pass one asks the log only for the record kinds it uses, so it no longer
decodes (and no longer trips over) a malformed *message* record.  These
tests pin where such a record surfaces instead, that the error is typed
and names the log and the LSN, and that a recovery which cannot read its
log leaves the process crashed — every retry gets the same error, never
a half-recovered component to execute against.
"""

import pytest

from repro import PhoenixRuntime, RuntimeConfig
from repro.common import MessageKind
from repro.core.process import ProcessState
from repro.errors import LogCorruptionError
from repro.faults.plane import FaultPlane, installed
from repro.log import MessageRecord, decode_record, frame, iter_frames
from tests.conftest import KvStore

pytestmark = pytest.mark.no_conformance_check  # the logs are corrupt

PUTS = 4
VICTIM = 2  # context id of the second store


def _build(on_demand: bool):
    config = RuntimeConfig.optimized(on_demand_recovery=on_demand)
    runtime = PhoenixRuntime(config=config)
    runtime.external_client_machine = "alpha"
    process = runtime.spawn_process("shop", machine="beta")
    stores = [process.create_component(KvStore) for __ in range(2)]
    for key in range(PUTS):
        for store in stores:
            store.put(key, key)
    process.log.force()
    return runtime, process, stores


def _rewrite_incoming_call(process, context_id: int, nth: int, mutate) -> int:
    """Replace the payload of ``context_id``'s ``nth`` incoming-call
    record with ``mutate(payload)`` (same length, CRC recomputed) and
    return the record's LSN."""
    log = process.log
    stable = log.stable_store.open(f"{log.process_name}.log")
    data = stable.read()
    rewritten = bytearray()
    seen = 0
    hit = None
    for offset, payload, __ in iter_frames(data):
        record = decode_record(payload)
        if (
            isinstance(record, MessageRecord)
            and record.context_id == context_id
            and record.kind is MessageKind.INCOMING_CALL
        ):
            if seen == nth:
                hit = log.base_lsn + offset
                payload = mutate(payload)
            seen += 1
        rewritten += frame(payload)
    assert hit is not None and len(rewritten) == len(data)
    stable.overwrite(bytes(rewritten))
    return hit


def _unknown_kind(payload: bytes) -> bytes:
    return b"\xee" + payload[1:]


def _cut_short(payload: bytes) -> bytes:
    """Keep the kind byte, context id, message kind and short flag; the
    message value then claims far more bytes than the payload has."""
    head = payload[:5]
    value = b"S\xff\xff\xff\x7f"
    return head + value + bytes(len(payload) - len(head) - len(value))


def _recovery_sites(plane: FaultPlane) -> set[str]:
    return {hit.site.split(":")[0] for hit in plane.journal}


class TestUnknownKindByte:
    @pytest.mark.parametrize("on_demand", [False, True])
    def test_recover_raises_with_the_position(self, on_demand):
        runtime, process, stores = _build(on_demand)
        process.crash()
        lsn = _rewrite_incoming_call(process, VICTIM, 1, _unknown_kind)
        with pytest.raises(LogCorruptionError) as raised:
            runtime.ensure_recovered(process)
        message = str(raised.value)
        assert "unknown record tag 238" in message
        assert f"LSN {lsn}" in message
        assert process.log.process_name in message
        # not truncated away as if it were a torn tail, and not admitted
        assert process.log.stable_lsn > lsn
        assert process.state is ProcessState.CRASHED


class TestMalformedMessageRecord:
    def test_surfaces_from_eager_chain_replay(self):
        runtime, process, stores = _build(on_demand=False)
        process.crash()
        lsn = _rewrite_incoming_call(process, VICTIM, 2, _cut_short)
        plane = FaultPlane(record=True)
        plane.bind(runtime)
        with installed(plane):
            with pytest.raises(LogCorruptionError, match=f"LSN {lsn}:"):
                stores[1].put("late", 1)
        sites = _recovery_sites(plane)
        assert "recovery.restored" in sites  # pass one did not see it
        # the drain's log-order redo read it, before any component was
        # finished, and the drain never completed
        assert "recovery.pass2" in sites
        assert "recovery.lazy_replay.before" not in sites
        assert "recovery.drained" not in sites
        self._assert_stays_down(process, stores[1], lsn)
        # eager recovery is all or nothing: the healthy store is down too
        with pytest.raises(LogCorruptionError, match=f"LSN {lsn}:"):
            stores[0].size()

    def test_surfaces_from_ensure_component(self):
        runtime, process, stores = _build(on_demand=True)
        process.crash()
        lsn = _rewrite_incoming_call(process, VICTIM, 2, _cut_short)
        plane = FaultPlane(record=True)
        plane.bind(runtime)
        with installed(plane):
            with pytest.raises(LogCorruptionError, match=f"LSN {lsn}:"):
                stores[1].put("late", 1)
        sites = _recovery_sites(plane)
        assert "recovery.admit_early" in sites  # analysis admitted it
        assert "recovery.lazy_replay.before" in sites
        assert "recovery.lazy_replay.after" not in sites
        self._assert_stays_down(process, stores[1], lsn)
        # a component whose own chain is intact still answers
        assert stores[0].size() == PUTS
        # ... and the full-recovery barrier reports the bad chain
        with pytest.raises(LogCorruptionError, match=f"LSN {lsn}:"):
            runtime.ensure_recovered(process)

    @staticmethod
    def _assert_stays_down(process, store, lsn: int) -> None:
        """No wedge and no silent re-execution: the process is crashed
        and a retry runs recovery again into the same typed error."""
        assert process.state is ProcessState.CRASHED
        assert process.pending_recovery is None
        for __ in range(2):
            with pytest.raises(LogCorruptionError, match=f"LSN {lsn}:"):
                store.put("late", 1)
            assert process.state is ProcessState.CRASHED
