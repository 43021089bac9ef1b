"""Log manager: buffering, force semantics, crash loss, torn tails."""

import pytest

from repro.common import MessageKind, MethodCallMessage
from repro.errors import InvariantViolationError, LogCorruptionError
from repro.log import LogManager, MessageRecord
from repro.sim import Cluster


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


class TestAppendForce:
    def test_append_assigns_monotonic_lsns(self, log):
        lsns = [log.append(record(i)) for i in range(5)]
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == 5

    def test_append_does_not_touch_disk(self, log):
        log.append(record(0))
        assert log.disk.stats.writes == 0
        assert log.stable_lsn == 0

    def test_force_makes_records_stable(self, log):
        lsn = log.append(record(0))
        assert log.force() is True
        assert log.stable_lsn > lsn
        assert log.disk.stats.writes == 1

    def test_empty_force_is_free(self, log):
        log.append(record(0))
        log.force()
        assert log.force() is False  # nothing new
        assert log.stats.forces_performed == 1
        assert log.stats.forces_requested == 2

    def test_one_force_flushes_many_records(self, log):
        for i in range(10):
            log.append(record(i))
        log.force()
        assert log.disk.stats.writes == 1
        assert log.stats.forces_performed == 1

    def test_append_and_force(self, log):
        lsn = log.append_and_force(record(0))
        assert log.stable_lsn > lsn

    def test_buffer_full_triggers_flush(self):
        machine = Cluster().machine("alpha")
        log = LogManager(
            "p1", machine.disk, machine.stable_store, buffer_capacity=64
        )
        log.append(record(0))
        log.append(record(1))
        assert log.stats.buffer_flushes >= 1
        assert log.stats.forces_performed == 0


class TestScan:
    def test_scan_returns_records_in_order(self, log):
        records = [record(i) for i in range(4)]
        lsns = [log.append(r) for r in records]
        log.force()
        got = list(log.scan())
        assert [lsn for lsn, _ in got] == lsns
        assert [r for _, r in got] == records

    def test_scan_from_lsn(self, log):
        log.append(record(0))
        mid = log.append(record(1))
        log.append(record(2))
        log.force()
        got = [r.message.args[0] for _, r in log.scan(mid)]
        assert got == [1, 2]

    def test_scan_excludes_unforced_buffer(self, log):
        log.append(record(0))
        log.force()
        log.append(record(1))
        assert len(list(log.scan())) == 1

    def test_read_record(self, log):
        lsn = log.append(record(7))
        log.force()
        assert log.read_record(lsn).message.args == (7,)

    def test_read_record_bad_lsn(self, log):
        log.append_and_force(record(0))
        with pytest.raises(InvariantViolationError):
            log.read_record(10_000)


class TestCrashSemantics:
    def test_wipe_discards_buffer(self, log):
        log.append(record(0))
        log.force()
        log.append(record(1))
        assert log.end_lsn > log.stable_lsn
        # The crash: the next incarnation reopens the stable files.
        log = LogManager(log.process_name, log.disk, log.stable_store)
        assert log.end_lsn == log.stable_lsn
        assert [r.message.args[0] for _, r in log.scan()] == [0]

    def test_append_after_wipe_continues_from_stable(self, log):
        log.append_and_force(record(0))
        log.append(record(1))  # will be lost
        log = LogManager(log.process_name, log.disk, log.stable_store)
        log.append_and_force(record(2))
        assert [r.message.args[0] for _, r in log.scan()] == [0, 2]


class TestTornTail:
    def test_repair_truncates_torn_tail(self, log):
        log.append_and_force(record(0))
        good_size = log.stable_lsn
        log.append(record(1))
        log.force()
        # chop bytes off the stable file: a write torn by the crash
        stable = log.stable_store.open("p1.log")
        stable.truncate(stable.size - 3)
        assert log.repair_tail() == good_size
        assert [r.message.args[0] for _, r in log.scan()] == [0]

    def test_repair_clean_log_is_noop(self, log):
        log.append_and_force(record(0))
        size = log.stable_lsn
        assert log.repair_tail() == size

    def test_interior_corruption_raises(self, log):
        lsn0 = log.append_and_force(record(0))
        log.append_and_force(record(1))
        stable = log.stable_store.open("p1.log")
        data = bytearray(stable.read())
        data[lsn0 + 12] ^= 0xFF  # flip a payload byte of the FIRST record
        stable.overwrite(bytes(data))
        with pytest.raises(LogCorruptionError):
            log.repair_tail()


class TestWellKnownFile:
    def test_roundtrip(self, log):
        assert log.read_well_known_lsn() is None
        log.write_well_known_lsn(1234)
        assert log.read_well_known_lsn() == 1234

    def test_overwrite(self, log):
        log.write_well_known_lsn(10)
        log.write_well_known_lsn(20)
        assert log.read_well_known_lsn() == 20

    def test_write_charges_disk(self, log):
        before = log.disk.stats.writes
        log.write_well_known_lsn(1)
        assert log.disk.stats.writes == before + 1
