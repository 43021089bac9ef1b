"""Log garbage collection (extension): prefix truncation with logical
LSNs, and recovery correctness from a truncated log."""

import pytest

from repro import (
    CheckpointConfig,
    InvariantViolationError,
    PhoenixRuntime,
    RuntimeConfig,
)
from repro.common import MessageKind, MethodCallMessage
from repro.log import LogManager, MessageRecord
from repro.sim import Cluster
from tests.conftest import Counter, KvStore, Relay, TallyOwner


def record(n: int) -> MessageRecord:
    return MessageRecord(
        context_id=1,
        kind=MessageKind.INCOMING_CALL,
        message=MethodCallMessage(
            target_uri="phoenix://alpha/p/1", method="m", args=(n,)
        ),
    )


@pytest.fixture
def log():
    machine = Cluster().machine("alpha")
    return LogManager("p1", machine.disk, machine.stable_store)


class TestLogicalLsns:
    def test_truncation_preserves_lsns(self, log):
        lsns = [log.append_and_force(record(i)) for i in range(5)]
        log.truncate_prefix(lsns[2])
        assert log.base_lsn == lsns[2]
        got = list(log.scan())
        assert [lsn for lsn, __ in got] == lsns[2:]
        assert log.read_record(lsns[3]).message.args == (3,)

    def test_reading_reclaimed_lsn_rejected(self, log):
        lsns = [log.append_and_force(record(i)) for i in range(3)]
        log.truncate_prefix(lsns[2])
        with pytest.raises(InvariantViolationError, match="garbage"):
            log.read_record(lsns[0])

    def test_scan_clamps_to_base(self, log):
        lsns = [log.append_and_force(record(i)) for i in range(3)]
        log.truncate_prefix(lsns[1])
        assert [lsn for lsn, __ in log.scan(0)] == lsns[1:]

    def test_appends_continue_after_truncation(self, log):
        lsns = [log.append_and_force(record(i)) for i in range(3)]
        log.truncate_prefix(lsns[2])
        new_lsn = log.append_and_force(record(99))
        assert new_lsn > lsns[2]
        assert log.read_record(new_lsn).message.args == (99,)

    def test_truncation_into_buffer_rejected(self, log):
        log.append_and_force(record(0))
        log.append(record(1))  # buffered
        with pytest.raises(InvariantViolationError):
            log.truncate_prefix(log.end_lsn)

    def test_noop_truncation(self, log):
        lsn = log.append_and_force(record(0))
        assert log.truncate_prefix(0) == 0
        assert log.truncate_prefix(log.base_lsn) == 0

    def test_stats_track_reclaimed_bytes(self, log):
        lsns = [log.append_and_force(record(i)) for i in range(4)]
        reclaimed = log.truncate_prefix(lsns[3])
        assert reclaimed == lsns[3] - lsns[0]
        assert log.stats.bytes_reclaimed == reclaimed
        assert log.stats.truncations == 1

    def test_repair_tail_after_truncation(self, log):
        lsns = [log.append_and_force(record(i)) for i in range(3)]
        log.truncate_prefix(lsns[1])
        stable = log.stable_store.open("p1.log")
        stable.truncate(stable.size - 2)  # tear the last record
        assert log.repair_tail() == lsns[2]
        assert [lsn for lsn, __ in log.scan()] == [lsns[1]]

    def test_reopen_after_truncation_keeps_lsns(self, log):
        """The truncation base is durable: a manager reopened over the
        same stable files (a restarted process) numbers every frame
        exactly as the live one, so a published LSN still resolves."""
        lsns = [log.append_and_force(record(i)) for i in range(5)]
        log.write_well_known_lsn(lsns[3])
        log.truncate_prefix(lsns[2])
        reopened = LogManager("p1", log.disk, log.stable_store)
        assert reopened.base_lsn == log.base_lsn == lsns[2]
        assert reopened.stable_lsn == log.stable_lsn
        scanned = [lsn for lsn, __ in reopened.scan()]
        assert scanned == [lsn for lsn, __ in log.scan()] == lsns[2:]
        published = reopened.read_well_known_lsn()
        assert reopened.read_record(published) == log.read_record(published)
        assert reopened.read_record(published).message.args == (3,)


def gc_runtime():
    config = RuntimeConfig.optimized(
        checkpoint=CheckpointConfig(
            context_state_every_n_calls=5,
            process_checkpoint_every_n_saves=1,
            truncate_log=True,
        )
    )
    return PhoenixRuntime(config=config)


class TestProcessGarbageCollection:
    def test_gc_reclaims_bytes(self):
        runtime = gc_runtime()
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        for __ in range(40):
            counter.increment()
        assert process.log.stats.bytes_reclaimed > 0
        assert process.log.base_lsn > 0

    def test_recovery_after_gc(self):
        runtime = gc_runtime()
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        for __ in range(43):
            counter.increment()
        assert process.log.base_lsn > 0  # GC happened
        runtime.crash_process(process)
        assert counter.increment() == 44

    def test_recovery_after_gc_with_subordinates(self):
        runtime = gc_runtime()
        process = runtime.spawn_process("p", machine="alpha")
        owner = process.create_component(TallyOwner)
        for i in range(23):
            owner.add(i)
        assert process.log.base_lsn > 0
        runtime.crash_process(process)
        assert owner.total() == 23
        assert owner.add("post") == 24

    def test_dedup_survives_gc(self):
        """Reply LSNs in the last-call table pin records against GC; a
        persistent client's retry after the server GCs and crashes must
        still find its reply."""
        runtime = gc_runtime()
        store_process = runtime.spawn_process("sp", machine="beta")
        store = store_process.create_component(KvStore)
        relay_process = runtime.spawn_process("rp", machine="alpha")
        relay = relay_process.create_component(Relay, args=(store,))
        for i in range(17):
            relay.put(f"k{i}", i)
        runtime.crash_process(store_process)
        relay.put("after", 99)
        instance = store_process.incarnation.component_table[1].instance
        assert instance.executions == 18
        assert len(instance.data) == 18

    def test_truncation_point_respects_reply_lsns(self):
        runtime = gc_runtime()
        store_process = runtime.spawn_process("sp", machine="beta")
        store = store_process.create_component(KvStore)
        relay_process = runtime.spawn_process("rp", machine="alpha")
        relay = relay_process.create_component(Relay, args=(store,))
        for i in range(11):
            relay.put(f"k{i}", i)
        point = store_process.log_truncation_point()
        for __, entry in store_process.incarnation.last_calls.all_entries():
            if entry.reply_lsn != -1:
                assert point <= entry.reply_lsn

    def test_gc_off_by_default(self, checkpointing_runtime):
        runtime = checkpointing_runtime
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        for __ in range(40):
            counter.increment()
        assert process.log.base_lsn == 0
        assert process.log.stats.truncations == 0
