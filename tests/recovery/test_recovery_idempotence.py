"""Recovery idempotence and repeated-crash robustness.

Recovery must be a fixpoint: recovering, crashing again immediately and
recovering again (any number of times) must land on the same state, and
continued execution must carry on as if nothing happened.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CheckpointConfig, PhoenixRuntime, RuntimeConfig
from tests.conftest import Counter, KvStore, Relay, TallyOwner


class TestRepeatedCrashes:
    @pytest.mark.parametrize("crashes", [1, 2, 5])
    def test_crash_recover_loop_is_stable(self, runtime, crashes):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        for __ in range(7):
            counter.increment()
        for __ in range(crashes):
            runtime.crash_process(process)
            runtime.ensure_recovered(process)
        assert counter.increment() == 8

    def test_crash_immediately_after_recovery(self, runtime):
        store_process = runtime.spawn_process("sp", machine="beta")
        store = store_process.create_component(KvStore)
        relay_process = runtime.spawn_process("rp", machine="alpha")
        relay = relay_process.create_component(Relay, args=(store,))
        relay.put("a", 1)
        for __ in range(3):
            runtime.crash_process(store_process)
            runtime.crash_process(relay_process)
        assert relay.put("b", 2) == (2, 2)
        assert store_process.incarnation.component_table[1].instance.executions == 2

    def test_alternating_crashes_with_traffic(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        owner = process.create_component(TallyOwner)
        expected = 0
        for round_number in range(6):
            owner.add(round_number)
            expected += 1
            if round_number % 2 == 0:
                runtime.crash_process(process)
        assert owner.total() == expected

    def test_recovery_log_growth_is_bounded_per_cycle(self, runtime):
        """Each crash/recover cycle with no new traffic must not inflate
        the log by more than a constant (the final-call reply force)."""
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        for __ in range(5):
            counter.increment()
        runtime.crash_process(process)
        runtime.ensure_recovered(process)
        size_after_first = process.log.stable_lsn
        for __ in range(4):
            runtime.crash_process(process)
            runtime.ensure_recovered(process)
        growth = process.log.stable_lsn - size_after_first
        assert growth == 0  # replay appends nothing new


@st.composite
def crash_schedule(draw):
    calls = draw(st.integers(1, 12))
    crash_points = draw(
        st.lists(st.integers(0, calls), max_size=4, unique=True)
    )
    checkpoint_every = draw(st.sampled_from([None, 2, 3, 7]))
    return calls, sorted(crash_points), checkpoint_every


class TestRecoveryProperty:
    @given(schedule=crash_schedule())
    @settings(max_examples=40, deadline=None)
    def test_counter_always_exact_despite_crash_schedule(self, schedule):
        calls, crash_points, checkpoint_every = schedule
        config = RuntimeConfig.optimized(
            checkpoint=CheckpointConfig(
                context_state_every_n_calls=checkpoint_every,
                process_checkpoint_every_n_saves=(
                    2 if checkpoint_every else None
                ),
            )
        )
        runtime = PhoenixRuntime(config=config)
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        crash_set = set(crash_points)
        for i in range(calls):
            if i in crash_set:
                runtime.crash_process(process)
            value = counter.increment()
            assert value == i + 1
        if calls in crash_set:
            runtime.crash_process(process)
        assert counter.increment() == calls + 1
