"""Process-crash recovery: the Figure 2 matrix and the two-pass replay."""

import pytest

from repro import (
    ApplicationError,
    ComponentUnavailableError,
    PersistentComponent,
    PhoenixRuntime,
    RetriesExhaustedError,
    RuntimeConfig,
    functional,
    persistent,
)
from repro.core import ProcessState
from repro.faults import arm
from tests.conftest import Counter, Doubler, KvStore, Relay, TallyOwner


def three_tier(runtime):
    """external -> Front(alpha) -> Mid(beta) -> Store(beta, own proc)."""

    @persistent
    class Mid(PersistentComponent):
        def __init__(self, store):
            self.store = store
            self.handled = 0

        def put(self, key, value):
            self.handled += 1
            size = self.store.put(key, value)
            return (self.handled, size)

    store_process = runtime.spawn_process("store", machine="beta")
    store = store_process.create_component(KvStore)
    mid_process = runtime.spawn_process("mid", machine="beta")
    mid = mid_process.create_component(Mid, args=(store,))
    front_process = runtime.spawn_process("front", machine="alpha")
    front = front_process.create_component(Relay, args=(mid,))
    return store_process, store, mid_process, mid, front_process, front


MID_POINTS = [
    "incoming.before_log",
    "incoming.after_log",
    "method.before",
    "outgoing.before_log",
    "outgoing.before_send",
    "reply_received.before_log",
    "reply_received.after_log",
    "method.after",
    "reply.before_send",
    "reply.after_send",
]


class TestFigure2FailurePoints:
    @pytest.mark.parametrize("point", MID_POINTS)
    def test_middle_tier_crash_is_masked_exactly_once(self, runtime, point):
        """Crash the middle component at every pipeline point.  Its
        persistent caller retries with the same call ID; the bottom
        store must execute each operation exactly once and the reply
        must be correct."""
        (store_process, store, mid_process, mid,
         front_process, front) = three_tier(runtime)
        front.put("warm", 0)
        arm(runtime, "mid", point)
        result = front.put("key", 1)
        assert result == (2, (2, 2))  # front count, (mid count, store size)
        store_instance = store_process.incarnation.component_table[1].instance
        assert store_instance.executions == 2  # exactly once per put
        assert store_instance.data == {"warm": 0, "key": 1}
        assert mid_process.crash_count == 1

    # A leaf component makes no outgoing calls, so only server-side
    # points apply to it.
    LEAF_POINTS = [
        "incoming.before_log",
        "incoming.after_log",
        "method.before",
        "method.after",
        "reply.before_send",
    ]

    @pytest.mark.parametrize("point", LEAF_POINTS)
    def test_bottom_tier_crash_is_masked(self, runtime, point):
        (store_process, store, mid_process, mid,
         front_process, front) = three_tier(runtime)
        front.put("warm", 0)
        arm(runtime, "store", point)
        result = front.put("key", 1)
        assert result == (2, (2, 2))
        store_instance = store_process.incarnation.component_table[1].instance
        assert store_instance.executions == 2
        assert store_process.crash_count == 1

    def test_bottom_tier_crash_after_reply_send(self, runtime):
        (store_process, store, mid_process, mid,
         front_process, front) = three_tier(runtime)
        front.put("warm", 0)
        arm(runtime, "store", "reply.after_send")
        # the reply already left: the call succeeds, then the store dies
        assert front.put("key", 1) == (2, (2, 2))
        assert store_process.crash_count == 1
        # the next operation transparently recovers it, exactly-once
        assert front.put("key2", 2) == (3, (3, 3))
        assert store_process.incarnation.component_table[1].instance.executions == 3

    def test_double_crash_still_masked(self, runtime):
        (store_process, store, mid_process, mid,
         front_process, front) = three_tier(runtime)
        front.put("warm", 0)
        arm(runtime, "mid", "reply.before_send")
        arm(runtime, "store", "method.after")
        assert front.put("key", 1) == (2, (2, 2))
        assert store_process.incarnation.component_table[1].instance.executions == 2


class TestReplayMechanics:
    def test_state_survives_many_calls(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        for __ in range(50):
            counter.increment()
        runtime.crash_process(process)
        assert counter.increment() == 51

    def test_multiple_contexts_recover_together(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        a = process.create_component(Counter)
        b = process.create_component(Counter, args=(100,))
        store = process.create_component(KvStore)
        for i in range(5):
            a.increment()
            b.increment(2)
            store.put(f"k{i}", i)
        runtime.crash_process(process)
        assert a.increment() == 6
        assert b.increment() == 111
        assert store.get("k3") == 3

    def test_constructor_outgoing_calls_replayed(self, runtime):
        @persistent
        class EagerCaller(PersistentComponent):
            def __init__(self, counter):
                self.counter = counter
                self.initial = counter.increment(5)

            def initial_value(self):
                return self.initial

        counter_process = runtime.spawn_process("cp", machine="beta")
        counter = counter_process.create_component(Counter)
        process = runtime.spawn_process("p", machine="alpha")
        eager = process.create_component(EagerCaller, args=(counter,))
        assert eager.initial_value() == 5
        runtime.crash_process(process)
        # replaying the constructor suppresses its outgoing call; the
        # remote counter is NOT incremented again
        assert eager.initial_value() == 5
        assert counter.increment() == 6

    def test_functional_calls_reexecuted_during_replay(self, runtime):
        @persistent
        class Mixed(PersistentComponent):
            def __init__(self, doubler, store):
                self.doubler = doubler
                self.store = store
                self.total = 0

            def work(self, x):
                doubled = self.doubler.double(x)  # functional: not logged
                size = self.store.put(f"x{x}", doubled)  # persistent
                self.total += doubled
                return (doubled, size)

        helper_process = runtime.spawn_process("hp", machine="beta")
        doubler = helper_process.create_component(Doubler)
        store = helper_process.create_component(KvStore)
        process = runtime.spawn_process("p", machine="alpha")
        mixed = process.create_component(Mixed, args=(doubler, store))
        for i in range(4):
            mixed.work(i)
        runtime.crash_process(process)
        assert mixed.work(9) == (18, 5)
        instance = process.incarnation.component_table[1].instance
        assert instance.total == 2 * (0 + 1 + 2 + 3 + 9)
        # the persistent store executed each put exactly once
        assert helper_process.incarnation.component_table[2].instance.executions == 5

    def test_application_errors_replay_deterministically(self, runtime):
        @persistent
        class Moody(PersistentComponent):
            def __init__(self):
                self.attempts = 0

            def maybe(self, ok):
                self.attempts += 1
                if not ok:
                    raise ValueError("refused")
                return self.attempts

        process = runtime.spawn_process("p", machine="alpha")
        moody = process.create_component(Moody)
        moody.maybe(True)
        with pytest.raises(ApplicationError):
            moody.maybe(False)
        runtime.crash_process(process)
        # replay re-raises internally and keeps counting identically
        assert moody.maybe(True) == 3

    def test_subordinates_rebuilt_by_replay(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        owner = process.create_component(TallyOwner)
        owner.add("x")
        owner.add("y")
        runtime.crash_process(process)
        assert owner.total() == 2
        assert owner.add("z") == 3

    def test_same_process_cross_context_calls_recover(self, runtime):
        """A and B live in ONE process; A calls B.  Both replay from the
        same log; B's replay must complete before A's live tail call."""

        @persistent
        class Chained(PersistentComponent):
            def __init__(self, target=None):
                self.target = target
                self.count = 0

            def bump(self, n):
                self.count += 1
                if self.target is not None:
                    return (self.count, self.target.bump(n))
                return self.count

        process = runtime.spawn_process("p", machine="alpha")
        b = process.create_component(Chained)
        a = process.create_component(Chained, args=(b,))
        for i in range(3):
            a.bump(i)
        runtime.crash_process(process)
        assert a.bump(9) == (4, 4)

    def test_recovered_process_keeps_call_id_sequence(self, runtime):
        """Condition 2: IDs regenerated after recovery must continue the
        original sequence, or dedup at servers breaks."""
        store_process = runtime.spawn_process("sp", machine="beta")
        store = store_process.create_component(KvStore)
        relay_process = runtime.spawn_process("rp", machine="alpha")
        relay = relay_process.create_component(Relay, args=(store,))
        relay.put("a", 1)
        relay.put("b", 2)
        runtime.crash_process(relay_process)
        relay.put("c", 3)  # would collide with a reused ID if seq reset
        assert store_process.incarnation.component_table[1].instance.executions == 3

    def test_recovery_survives_torn_log_tail(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        for __ in range(5):
            counter.increment()
        runtime.crash_process(process)
        # tear bytes off the stable log tail (a write cut by the crash)
        stable = runtime.cluster.machine("alpha").stable_store.open(
            "alpha-p.log"
        )
        stable.truncate(stable.size - 2)
        # the torn record was the last force's tail; at most the final
        # logged call is lost, and the counter re-executes only what the
        # client resends
        value = counter.increment()
        assert value in (5, 6)  # depends on which record was torn


class TestRecoveryControls:
    def test_no_auto_recover_raises_for_external(self):
        runtime = PhoenixRuntime(
            config=RuntimeConfig.optimized(auto_recover=False)
        )
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        runtime.crash_process(process)
        with pytest.raises(ComponentUnavailableError):
            counter.increment()

    def test_no_auto_recover_exhausts_persistent_retries(self):
        runtime = PhoenixRuntime(
            config=RuntimeConfig.optimized(
                auto_recover=False, max_call_retries=3
            )
        )
        store_process = runtime.spawn_process("sp", machine="beta")
        store = store_process.create_component(KvStore)
        relay_process = runtime.spawn_process("rp", machine="alpha")
        relay = relay_process.create_component(Relay, args=(store,))
        relay.put("a", 1)
        runtime.crash_process(store_process)
        with pytest.raises(ApplicationError, match="Retries"):
            relay.put("b", 2)

    def test_manual_recovery(self):
        runtime = PhoenixRuntime(
            config=RuntimeConfig.optimized(auto_recover=False)
        )
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        counter.increment()
        runtime.crash_process(process)
        runtime.ensure_recovered(process)
        assert process.state is ProcessState.RUNNING
        assert counter.increment() == 2

    def test_recovery_charges_simulated_time(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        counter.increment()
        runtime.crash_process(process)
        before = runtime.now
        runtime.ensure_recovered(process)
        # at least the runtime-init cost (~492 ms)
        assert runtime.now - before >= runtime.costs.runtime_init

    def test_recovering_empty_process(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        runtime.crash_process(process)
        runtime.ensure_recovered(process)
        assert process.state is ProcessState.RUNNING
