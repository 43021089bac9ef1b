"""A crashed context is one more mark in the pending table.

Context-crash recovery (``recover_context``) restores the context's
state record and replays its chain through ``PendingRecovery``, the
table every process restart drains: concurrent callers see one replay,
a mark joins an on-demand restart's table while one is
published, a crash at the table's replay site crashes the process like
any other, and an error on the shared restore path names the process,
the stream and the context.
"""

import pytest

from repro import PhoenixRuntime, RuntimeConfig
from repro.checkpoint.process_checkpoint import take_process_checkpoint
from repro.concurrency import DeterministicScheduler
from repro.core.interceptor import MessageInterceptor
from repro.core.tables import NO_LSN
from repro.errors import ComponentUnavailableError, RecoveryError
from repro.faults.plane import CrashSpec, FaultPlane, installed
from repro.log import MessageRecord
from repro.recovery.incremental import PENDING, RECOVERED
from tests.conftest import Counter, KvStore, Relay


def _crashed_relay(**overrides):
    """A relay that has forwarded three puts, its context crashed."""
    runtime = PhoenixRuntime(config=RuntimeConfig.optimized(**overrides))
    runtime.external_client_machine = "alpha"
    store_process = runtime.spawn_process("sp", machine="beta")
    store = store_process.create_component(KvStore)
    relay_process = runtime.spawn_process("rp", machine="alpha")
    relay = relay_process.create_component(Relay, args=(store,))
    for key in range(3):
        relay.put(key, key)
    runtime.crash_context(relay_process.find_context(1))
    return runtime, relay_process, relay, store


def _replays(monkeypatch) -> list[str]:
    """Spy on ``invoke_for_replay``: the method of every replayed call."""
    seen: list[str] = []
    real = MessageInterceptor.invoke_for_replay

    def spy(self, message):
        seen.append(message.method)
        return real(self, message)

    monkeypatch.setattr(MessageInterceptor, "invoke_for_replay", spy)
    return seen


def _state(relay, store):
    return relay.peek("a"), relay.peek("b"), store.size(), relay.put("c", 3)


class TestConcurrentCallers:
    @pytest.mark.parametrize("seed", range(6))
    def test_two_sessions_replay_the_chain_once(self, seed, monkeypatch):
        """Two sessions call a crashed relay that calls a store: the
        relay's chain is replayed once, and replies and state equal the
        serial run's."""
        runtime, __, relay, store = _crashed_relay()
        replays = _replays(monkeypatch)
        serial = [relay.put("a", 1), relay.put("b", 2)]
        serial_replays = list(replays)
        serial_state = _state(relay, store)

        runtime, __, relay, store = _crashed_relay()
        replays.clear()
        scheduler = DeterministicScheduler(runtime, seed=seed)
        replies = scheduler.run(
            [lambda: relay.put("a", 1), lambda: relay.put("b", 2)]
        )
        assert replays == serial_replays == ["put"] * 3
        assert sorted(replies) == serial
        assert _state(relay, store) == serial_state


class TestJoiningAnOnDemandTable:
    def test_the_mark_joins_and_the_table_still_detaches(self):
        runtime = PhoenixRuntime(
            config=RuntimeConfig.optimized(on_demand_recovery=True)
        )
        runtime.external_client_machine = "alpha"
        process = runtime.spawn_process("sp", machine="beta")
        stores = [process.create_component(KvStore) for __ in range(3)]
        for key in range(4):
            for store in stores:
                store.put(key, key)
        process.log.force()
        runtime.crash_process(process)
        assert stores[0].put("x", 1) == 5  # replays the first store only
        table = process.incarnation.pending_recovery
        replayed = table.marks[1]
        assert replayed.status == RECOVERED
        assert [table.marks[i].status for i in (2, 3)] == [PENDING] * 2

        runtime.crash_context(process.find_context(1))
        assert stores[0].put("y", 2) == 6
        assert process.incarnation.pending_recovery is table
        assert table.marks[1] is not replayed
        assert table.marks[1].status == RECOVERED
        assert [table.marks[i].status for i in (2, 3)] == [PENDING] * 2
        assert process.incarnation.component_table[1].instance.executions == 6

        assert [store.put("y", 2) for store in stores[1:]] == [5, 5]
        assert process.incarnation.pending_recovery is None
        assert [store.size() for store in stores] == [6, 5, 5]


class TestACrashDuringContextRecovery:
    def test_the_process_crashes_and_the_next_call_recovers_it(self):
        """Context recovery crosses the table's replay site, so a crash
        spec there crashes the process; the retry restarts it, with the
        replies and state of a crash-free run."""
        runtime, __, relay, store = _crashed_relay()
        expected = [relay.put("a", 1), _state(relay, store)]

        runtime, relay_process, relay, store = _crashed_relay()
        recoveries = relay_process.recovery_count
        plane = FaultPlane(
            specs=(CrashSpec("recovery.lazy_replay.before:rp", 1),)
        )
        plane.bind(runtime)
        with installed(plane):
            with pytest.raises(ComponentUnavailableError):
                relay.put("a", 1)
            assert plane.fired
            got = [relay.put("a", 1), _state(relay, store)]
        assert got == expected
        assert relay_process.recovery_count == recoveries + 1


def _message_lsn(process) -> int:
    return next(
        lsn
        for lsn, record in process.log.scan()
        if isinstance(record, MessageRecord)
    )


def _counter(runtime):
    runtime.external_client_machine = "alpha"
    process = runtime.spawn_process("p", machine="alpha")
    counter = process.create_component(Counter)
    for __ in range(3):
        counter.increment()
    return process, counter, process.incarnation.context_table[1]


class TestErrorsNameTheProcessAndTheStream:
    WHERE = "process 'p', stream 'alpha-p', context 1: "

    def _restart_after_a_checkpoint(self, runtime, process):
        take_process_checkpoint(process)
        process.log_force()
        assert process.log.read_well_known_lsn() is not None
        runtime.crash_process(process)
        runtime.restart_process(process)

    def test_a_checkpoint_pointing_at_no_state_record(self, runtime):
        process, __, entry = _counter(runtime)
        lsn = entry.state_record_lsn = _message_lsn(process)
        with pytest.raises(RecoveryError) as raised:
            self._restart_after_a_checkpoint(runtime, process)
        assert str(raised.value) == (
            f"{self.WHERE}LSN {lsn} is not a ContextStateRecord"
        )

    def test_a_checkpoint_pointing_at_no_creation_record(self, runtime):
        process, __, entry = _counter(runtime)
        lsn = entry.creation_lsn = _message_lsn(process)
        with pytest.raises(RecoveryError) as raised:
            self._restart_after_a_checkpoint(runtime, process)
        assert str(raised.value) == (
            f"{self.WHERE}LSN {lsn} is not a CreationRecord"
        )

    def test_a_context_entry_pointing_at_no_state_record(self, runtime):
        process, counter, entry = _counter(runtime)
        process.log.force()
        lsn = entry.state_record_lsn = _message_lsn(process)
        runtime.crash_context(process.find_context(1))
        with pytest.raises(RecoveryError) as raised:
            counter.increment()
        assert str(raised.value) == (
            f"{self.WHERE}LSN {lsn} is not a ContextStateRecord"
        )

    def test_a_context_entry_with_no_start(self, runtime):
        process, counter, entry = _counter(runtime)
        entry.creation_lsn = entry.state_record_lsn = NO_LSN
        runtime.crash_context(process.find_context(1))
        with pytest.raises(RecoveryError) as raised:
            counter.increment()
        assert str(raised.value) == (
            f"{self.WHERE}no creation or state record in its table"
        )
