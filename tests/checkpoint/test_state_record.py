"""Context state records: save + restore (Section 4.2)."""

import pytest

from repro.checkpoint import save_context_state
from repro.core import NO_LSN
from repro.errors import InvariantViolationError
from repro.log import ContextStateRecord, LastCallReplyRecord
from tests.conftest import Counter, KvStore, TallyOwner, deploy_pair


class TestSave:
    def test_save_appends_state_record(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        counter.increment(5)
        context = process.find_context(1)
        lsn = save_context_state(context)
        process.log.force()
        record = process.log.read_record(lsn)
        assert isinstance(record, ContextStateRecord)
        assert record.snapshots[0].fields == {"count": 5}

    def test_save_is_not_forced(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        counter.increment()
        forces = process.log.stats.forces_performed
        save_context_state(process.find_context(1))
        assert process.log.stats.forces_performed == forces

    def test_save_updates_context_table(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        counter.increment()
        assert process.incarnation.context_table[1].state_record_lsn == NO_LSN
        lsn = save_context_state(process.find_context(1))
        assert process.incarnation.context_table[1].state_record_lsn == lsn

    def test_save_includes_subordinates(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        owner = process.create_component(TallyOwner)
        owner.add("x")
        lsn = save_context_state(process.find_context(1))
        process.log.force()
        record = process.log.read_record(lsn)
        lids = [s.component_lid for s in record.snapshots]
        assert len(lids) == 2 and max(lids) > 100_000

    def test_save_persists_outgoing_seq(self, runtime):
        store_process, store, relay_process, relay = deploy_pair(runtime)
        relay.put("a", 1)
        relay.put("b", 2)
        context = relay_process.find_context(1)
        lsn = save_context_state(context)
        relay_process.log.force()
        record = relay_process.log.read_record(lsn)
        assert record.snapshots[0].next_outgoing_seq == context.next_outgoing_seq
        assert context.next_outgoing_seq >= 2

    def test_save_writes_pending_last_call_replies(self, runtime):
        store_process, store, relay_process, relay = deploy_pair(runtime)
        relay.put("a", 1)  # store has a last-call entry with in-memory reply
        context = store_process.find_context(1)
        save_context_state(context)
        store_process.log.force()
        kinds = [type(r).__name__ for __, r in store_process.log.scan()]
        assert "LastCallReplyRecord" in kinds
        entry = store_process.incarnation.last_calls.entries_for_context(1)[0]
        assert entry.reply_lsn != NO_LSN

    def test_second_save_reuses_reply_lsn(self, runtime):
        store_process, store, relay_process, relay = deploy_pair(runtime)
        relay.put("a", 1)
        context = store_process.find_context(1)
        save_context_state(context)
        store_process.log.force()
        replies_before = sum(
            1 for __, r in store_process.log.scan()
            if isinstance(r, LastCallReplyRecord)
        )
        save_context_state(context)  # no new calls since
        store_process.log.force()
        replies_after = sum(
            1 for __, r in store_process.log.scan()
            if isinstance(r, LastCallReplyRecord)
        )
        assert replies_after == replies_before

    def test_stateless_context_rejected(self, runtime):
        from tests.conftest import Doubler

        process = runtime.spawn_process("p", machine="alpha")
        process.create_component(Doubler)
        with pytest.raises(InvariantViolationError):
            save_context_state(process.find_context(1))


class TestAutomaticSaves:
    def test_policy_saves_every_n_calls(self, checkpointing_runtime):
        runtime = checkpointing_runtime  # every 5 calls
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        for __ in range(4):
            counter.increment()
        assert process.incarnation.context_table[1].state_record_lsn == NO_LSN
        counter.increment()  # fifth call
        assert process.incarnation.context_table[1].state_record_lsn != NO_LSN

    def test_process_checkpoint_after_n_saves(self, checkpointing_runtime):
        runtime = checkpointing_runtime  # ckpt every 2 saves
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        for __ in range(10):  # 2 state saves -> 1 process checkpoint
            counter.increment()
        counter.increment()  # flush it via the next forced send
        assert process.log.read_well_known_lsn() is not None


class TestRestoreViaRecovery:
    def test_state_restored_after_crash(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        for __ in range(7):
            counter.increment()
        save_context_state(process.find_context(1))
        counter.increment()  # flushes the state record; count=8
        runtime.crash_process(process)
        assert counter.increment() == 9

    def test_restore_rebuilds_subordinates(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        owner = process.create_component(TallyOwner)
        owner.add("x")
        owner.add("y")
        save_context_state(process.find_context(1))
        owner.add("z")
        runtime.crash_process(process)
        assert owner.total() == 3
        assert owner.add("post") == 4
