"""Checkpoints interrupted by crashes.

A process checkpoint is not atomic on the log: a crash can leave a
begin record and some table dumps without the end record, or tear the
checkpoint bytes mid-write.  Recovery must never depend on an
unpublished checkpoint — the well-known file only ever points at one
whose end record reached the disk.
"""

import pytest

from repro import PhoenixRuntime
from repro.checkpoint import save_context_state, take_process_checkpoint
from tests.conftest import Counter, KvStore, Relay


class TestInterruptedCheckpoints:
    def test_unflushed_checkpoint_is_simply_lost(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        for __ in range(5):
            counter.increment()
        take_process_checkpoint(process)  # buffered, never flushed
        runtime.crash_process(process)  # buffer gone
        assert process.log.read_well_known_lsn() is None
        assert counter.increment() == 6  # recovery from creation replay

    def test_torn_checkpoint_tail_is_truncated(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        for __ in range(5):
            counter.increment()
        take_process_checkpoint(process)
        process.log.force()  # checkpoint reaches disk...
        stable = runtime.cluster.machine("alpha").stable_store.open(
            "alpha-p.log"
        )
        stable.truncate(stable.size - 5)  # ...but its tail is torn off
        runtime.crash_process(process)
        assert counter.increment() == 6

    def test_published_checkpoint_survives_newer_incomplete_one(
        self, runtime
    ):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        for __ in range(3):
            counter.increment()
        save_context_state(process.find_context(1))
        begin, __ = take_process_checkpoint(process)
        counter.increment()  # flushes and PUBLISHES the checkpoint
        assert process.log.read_well_known_lsn() == begin
        for __ in range(3):
            counter.increment()
        take_process_checkpoint(process)  # newer, never flushed
        runtime.crash_process(process)
        # recovery starts from the published (older) checkpoint
        assert process.log.read_well_known_lsn() == begin
        assert counter.increment() == 8

    def test_state_record_in_lost_buffer_falls_back(self, runtime):
        """A context save whose record never reached disk: recovery
        falls back to the previous state record (or creation)."""
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        for __ in range(4):
            counter.increment()
        save_context_state(process.find_context(1))
        counter.increment()  # flushes the first save; count=5
        save_context_state(process.find_context(1))  # buffered only
        runtime.crash_process(process)
        assert counter.increment() == 6

    def test_checkpoint_during_active_traffic_is_consistent(self, runtime):
        """Checkpoints interleave with calls; a crash right after the
        publish must recover the newest state exactly."""
        store_process = runtime.spawn_process("sp", machine="beta")
        store = store_process.create_component(KvStore)
        relay_process = runtime.spawn_process("rp", machine="alpha")
        relay = relay_process.create_component(Relay, args=(store,))
        for i in range(5):
            relay.put(f"k{i}", i)
        save_context_state(store_process.find_context(1))
        take_process_checkpoint(store_process)
        relay.put("flush", 99)  # publishes
        runtime.crash_process(store_process)
        assert relay.put("post", 1) == (7, 7)
        instance = store_process.incarnation.component_table[1].instance
        assert instance.executions == 7
