"""Crashes that land *during* recovery itself.

Replay never fires injection points (recovery re-executes application
code whose crash points belonged to the original run), but recovery can
make live calls — to other processes that may themselves be crashed, or
freshly crash while serving recovery's call.  Those cascades must heal.
"""

import pytest

from repro import PersistentComponent, PhoenixRuntime, persistent
from repro.faults import arm
from tests.conftest import KvStore, Relay


class TestCascadedRecovery:
    def test_recovery_live_call_into_crashed_process(self, runtime):
        """Relay crashed with an unlogged reply; its recovery must call
        the store live — and the store is ALSO crashed.  Nested
        recovery brings both back."""
        store_process = runtime.spawn_process("sp", machine="beta")
        store = store_process.create_component(KvStore)
        relay_process = runtime.spawn_process("rp", machine="alpha")
        relay = relay_process.create_component(Relay, args=(store,))
        relay.put("a", 1)
        # crash the relay mid-call so its last msg4 is unlogged
        arm(runtime, "rp", "reply_received.before_log")
        try:
            relay.put("b", 2)
        except Exception:
            pass
        # now crash the store too, before the relay recovers
        runtime.crash_process(store_process)
        # driving the relay recovers it; its live replay call recovers
        # the store transitively
        assert relay.put("c", 3) == (3, 3)
        assert store_process.recovery_count >= 1
        assert relay_process.recovery_count >= 1
        assert store_process.incarnation.component_table[1].instance.executions == 3

    def test_server_crashes_while_serving_recovery_live_call(self, runtime):
        """The store dies exactly when recovery's live continuation
        calls it; the replaying relay's retry loop must ride it out."""
        store_process = runtime.spawn_process("sp", machine="beta")
        store = store_process.create_component(KvStore)
        relay_process = runtime.spawn_process("rp", machine="alpha")
        relay = relay_process.create_component(Relay, args=(store,))
        relay.put("a", 1)
        arm(runtime, "rp", "reply_received.before_log")
        try:
            relay.put("b", 2)
        except Exception:
            pass
        # arm the store to die when the NEXT call reaches it — which
        # will be the relay-recovery's live continuation
        arm(runtime, "sp", "method.after")
        assert relay.put("c", 3) == (3, 3)
        assert store_process.incarnation.component_table[1].instance.executions == 3
        assert store_process.crash_count == 1

    def test_double_cascade(self, runtime):
        """Three tiers, everything crashed, one call heals the lot."""

        @persistent
        class Mid(PersistentComponent):
            def __init__(self, store):
                self.store = store

            def put(self, key, value):
                return self.store.put(key, value)

        store_process = runtime.spawn_process("sp", machine="beta")
        store = store_process.create_component(KvStore)
        mid_process = runtime.spawn_process("mp", machine="beta")
        mid = mid_process.create_component(Mid, args=(store,))
        front_process = runtime.spawn_process("fp", machine="alpha")
        front = front_process.create_component(Relay, args=(mid,))
        front.put("a", 1)
        for process in (store_process, mid_process, front_process):
            runtime.crash_process(process)
        assert front.put("b", 2) == (2, 2)
        for process in (store_process, mid_process, front_process):
            assert process.recovery_count == 1
        assert store_process.incarnation.component_table[1].instance.executions == 2
