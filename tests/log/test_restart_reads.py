"""A restart reads each framed file once.

The recovery service's registration table and the queued substrate's
durable logs (behind the recoverable queue, the state store and the
transaction coordinator) repair a torn tail and replay what survived
from one read and one CRC walk of the stable file: the replay decodes
the payloads the repair walk kept.
"""

from collections import Counter as Tally

import pytest

from repro import PhoenixRuntime
from repro.errors import LogCorruptionError
from repro.log import Writer, frame
from repro.queues import (
    DurableStateStore,
    RecoverableQueue,
    TransactionCoordinator,
)
from repro.queues.dlog import DurableLog
from repro.recovery.recovery_service import RecoveryService
from repro.sim import Cluster
from repro.sim.stable_store import StableFile

#: A frame cut short by a crash mid-write.
TORN = frame(b"\x03abcdef")[:-3]


@pytest.fixture
def reads(monkeypatch):
    """``StableFile.read`` calls, by file name."""
    tally: Tally = Tally()
    real = StableFile.read

    def counting(self, *args, **kwargs):
        tally[self.name] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(StableFile, "read", counting)
    return tally


def test_the_registration_table_restarts_from_one_read(reads):
    runtime = PhoenixRuntime()
    machine = runtime.cluster.machine("beta")
    pids = {
        name: runtime.spawn_process(name, machine="beta").logical_pid
        for name in ("p", "q")
    }
    stable = machine.stable_store.open("recovery-service.log")
    size = stable.size
    stable.append(TORN)
    reads.clear()
    restarted = RecoveryService(machine, runtime)
    assert reads["recovery-service.log"] == 1
    assert stable.size == size
    assert {name: restarted.logical_pid_of(name) for name in pids} == pids


def test_each_resource_manager_restarts_from_one_read(reads):
    machine = Cluster().machine("alpha")
    coordinator = TransactionCoordinator(machine)
    queue = RecoverableQueue(machine, "q")
    store = DurableStateStore(machine, "s")
    with coordinator.begin() as txn:
        queue.enqueue(txn, "a")
        store.set(txn, "k", 1)
    for manager, name in (
        (queue, "q.qlog"),
        (store, "s.qlog"),
        (coordinator, "txn-coordinator.qlog"),
    ):
        stable = machine.stable_store.open(name)
        size = stable.size
        stable.append(TORN)
        reads.clear()
        manager.crash()
        assert reads[name] == 1, name
        assert stable.size == size, name
    assert coordinator.committed_txns() == {txn.txn_id}


def test_a_bad_record_with_records_after_it_is_not_a_short_log():
    machine = Cluster().machine("alpha")
    log = DurableLog(machine, "q")
    log.append("ok", 1)
    log.force()
    bad = Writer()
    bad.text("bad")
    bad.raw(b"Y")
    machine.stable_store.open("q.qlog").append(frame(bad.getvalue()))
    log.append("after", 2)
    log.force()
    with pytest.raises(LogCorruptionError):
        list(log.records())
    with pytest.raises(LogCorruptionError):
        log.crash()
        list(log.records())
