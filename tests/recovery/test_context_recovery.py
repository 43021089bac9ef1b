"""Context-failure recovery: the easy case of Section 4.4."""

import pytest

from repro.checkpoint import save_context_state
from repro.core import ProcessState
from repro.log import log_manager
from tests.conftest import Counter, KvStore, TallyOwner


class TestContextCrash:
    def test_context_recovers_without_process_restart(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        other = process.create_component(Counter, args=(1000,))
        for __ in range(5):
            counter.increment()
        recoveries_before = process.recovery_count
        runtime.crash_context(process.find_context(1))
        assert counter.increment() == 6
        # the process itself never restarted
        assert process.recovery_count == recoveries_before
        assert process.state is ProcessState.RUNNING
        # the sibling context was untouched
        assert other.increment() == 1001

    def test_context_recovery_uses_state_record(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        for __ in range(10):
            counter.increment()
        save_context_state(process.find_context(1))
        counter.increment()  # flush; count=11
        context = process.find_context(1)
        runtime.crash_context(context)
        before = runtime.now
        assert counter.increment() == 12
        # restoring from the state record replays only the tail, not all
        # 11 calls; elapsed stays well under a full process recovery
        assert runtime.now - before < runtime.costs.runtime_init

    def test_context_recovery_reads_a_state_record_still_buffered(self):
        """``save_context_state`` appends without forcing, and a context
        crash leaves the log buffer alive: the record the context table
        points at must still be found by the recovery that follows."""
        from repro import PhoenixRuntime

        def run(crash: bool) -> tuple[int, int, int]:
            runtime = PhoenixRuntime()
            runtime.external_client_machine = "alpha"
            process = runtime.spawn_process("p", machine="alpha")
            counter = process.create_component(Counter)
            for __ in range(4):
                counter.increment()
            context = process.find_context(1)
            save_context_state(context)
            log = process.log
            state_lsn = process.incarnation.context_table[1].state_record_lsn
            assert log.stable_lsn <= state_lsn < log.end_lsn
            if crash:
                runtime.crash_context(context)
            reply = counter.increment()
            count = process.incarnation.component_table[1].instance.count
            return reply, count, process.recovery_count

        assert run(crash=True) == run(crash=False) == (5, 5, 0)

    def test_context_recovery_rebuilds_subordinates(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        owner = process.create_component(TallyOwner)
        owner.add("x")
        owner.add("y")
        runtime.crash_context(process.find_context(1))
        assert owner.total() == 2

    def test_context_recovery_preserves_dedup(self, runtime):
        """A persistent caller's retry after a context crash must be
        answered from the rebuilt last-call state, not re-executed."""
        from tests.conftest import Relay

        store_process = runtime.spawn_process("sp", machine="beta")
        store = store_process.create_component(KvStore)
        relay_process = runtime.spawn_process("rp", machine="alpha")
        relay = relay_process.create_component(Relay, args=(store,))
        relay.put("a", 1)
        runtime.crash_context(store_process.find_context(1))
        relay.put("b", 2)
        assert store_process.incarnation.component_table[1].instance.executions == 2

    def test_context_recovery_reads_only_its_own_chain(
        self, runtime, monkeypatch
    ):
        """The victim's chain is all that is decoded, however many other
        contexts' calls share the log."""
        from tests.conftest import Relay

        store_process = runtime.spawn_process("sp", machine="beta")
        stores = [store_process.create_component(KvStore) for __ in range(4)]
        relay_process = runtime.spawn_process("rp", machine="alpha")
        relays = [
            relay_process.create_component(Relay, args=(store,))
            for store in stores
        ]
        for key in range(6):
            if key == 3:
                save_context_state(store_process.find_context(1))
            for relay in relays:
                relay.put(key, key)
        log = store_process.log
        log.force()
        state_lsn = store_process.incarnation.context_table[1].state_record_lsn
        tail = [
            lsn
            for lsn, record in log.scan(state_lsn)
            if record.context_id == 1 and lsn > state_lsn
        ]
        last_calls = {
            key: (entry.call_id, entry.reply, entry.reply_lsn)
            for key, entry in store_process.incarnation.last_calls.all_entries()
        }
        recoveries = store_process.recovery_count

        decodes = []
        real_decode = log_manager.decode_record
        monkeypatch.setattr(
            log_manager,
            "decode_record",
            lambda payload: decodes.append(1) or real_decode(payload),
        )
        context = store_process.find_context(1)
        runtime.crash_context(context)
        runtime.recover_context(context)
        monkeypatch.undo()

        # the state record itself, then the chain past it
        assert len(decodes) == 1 + len(tail)
        assert store_process.state is ProcessState.RUNNING
        assert store_process.recovery_count == recoveries
        assert {
            key: (entry.call_id, entry.reply, entry.reply_lsn)
            for key, entry in store_process.incarnation.last_calls.all_entries()
        } == last_calls
        assert stores[0].size() == 6
        assert store_process.incarnation.component_table[1].instance.executions == 6

    def test_crashed_context_unavailable_without_auto_recover(self):
        from repro import (
            ComponentUnavailableError,
            PhoenixRuntime,
            RuntimeConfig,
        )

        runtime = PhoenixRuntime(
            config=RuntimeConfig.optimized(auto_recover=False)
        )
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        counter.increment()
        runtime.crash_context(process.find_context(1))
        with pytest.raises(ComponentUnavailableError):
            counter.increment()
