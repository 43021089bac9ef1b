"""Network partitions, retries, and failure-detection behaviour."""

import pytest

from repro import (
    ApplicationError,
    PhoenixRuntime,
    RuntimeConfig,
)
from tests.conftest import KvStore, Relay


def deploy(config=None):
    runtime = PhoenixRuntime(config=config or RuntimeConfig.optimized())
    store_process = runtime.spawn_process("sp", machine="beta")
    store = store_process.create_component(KvStore)
    relay_process = runtime.spawn_process("rp", machine="alpha")
    relay = relay_process.create_component(Relay, args=(store,))
    return runtime, store_process, relay_process, relay


class TestPartitions:
    def test_partition_is_a_recognized_failure(self):
        runtime, __, __, relay = deploy(
            RuntimeConfig.optimized(max_call_retries=2)
        )
        relay.put("a", 1)
        runtime.cluster.network.partition("alpha", "beta")
        with pytest.raises(ApplicationError, match="Retries"):
            relay.put("b", 2)

    def test_call_succeeds_after_heal_mid_retries(self):
        """A persistent caller's retry loop outlasts a short partition —
        condition 4: 'repeats an outgoing method call until it gets some
        response'."""
        runtime, store_process, __, relay = deploy()
        relay.put("a", 1)
        network = runtime.cluster.network

        # heal the partition from inside the retry loop: patch the
        # clock's advance (the retry backoff) to heal after two waits
        waits = {"count": 0}
        original_advance = runtime.clock.advance

        def advance(delta):
            if delta == runtime.costs.retry_backoff:
                waits["count"] += 1
                if waits["count"] >= 2:
                    network.heal("alpha", "beta")
            return original_advance(delta)

        runtime.clock.advance = advance
        network.partition("alpha", "beta")
        try:
            assert relay.put("b", 2) == (2, 2)
        finally:
            runtime.clock.advance = original_advance
        # exactly-once held across the retries
        assert store_process.incarnation.component_table[1].instance.executions == 2

    def test_retry_backoff_charges_time(self):
        runtime, store_process, __, relay = deploy(
            RuntimeConfig.optimized(max_call_retries=3, auto_recover=False)
        )
        relay.put("a", 1)
        runtime.crash_process(store_process)
        before = runtime.now
        with pytest.raises(ApplicationError):
            relay.put("b", 2)
        waited = runtime.now - before
        assert waited >= 3 * runtime.costs.retry_backoff


class TestExternalClientPlacement:
    def test_external_machine_adds_network_cost(self):
        runtime = PhoenixRuntime()
        process = runtime.spawn_process("p", machine="beta")
        store = process.create_component(KvStore)
        store.put("warm", 0)

        before = runtime.cluster.network.stats.messages
        store.put("local", 1)  # external co-located with the server
        assert runtime.cluster.network.stats.messages == before + 2
        assert runtime.cluster.network.stats.busy_ms == 0.0

        runtime.external_client_machine = "alpha"
        store.put("remote", 2)
        assert runtime.cluster.network.stats.busy_ms > 0.0

    def test_dedup_replies_read_lazily_from_log(self):
        """After a server recovers, a duplicate's reply may exist only
        as an LSN; answering the retry reads it from the log."""
        runtime, store_process, relay_process, relay = deploy()
        relay.put("a", 1)
        # force the reply onto the log via a context state save
        context = store_process.find_context(1)
        store_process.save_context_state(context)
        store_process.log.force()
        runtime.crash_process(store_process)
        runtime.ensure_recovered(store_process)
        entry = store_process.incarnation.last_calls.entries_for_context(1)[0]
        assert entry.reply_lsn != -1
