"""State-size-dependent checkpoint costs (extension).

The paper's state record was 468 bytes and its save overhead ~1 ms; it
notes larger states would cost more.  Small states stay in the paper's
fixed-cost regime; larger ones pay a serialization rate per extra KB.
"""

import pytest

from repro import PersistentComponent, PhoenixRuntime, persistent
from repro.checkpoint import save_context_state


@persistent
class Blob(PersistentComponent):
    def __init__(self):
        self.payload = ""

    def fill(self, nbytes: int):
        self.payload = "x" * nbytes
        return len(self.payload)


def save_cost(nbytes: int) -> float:
    runtime = PhoenixRuntime()
    process = runtime.spawn_process("p", machine="alpha")
    blob = process.create_component(Blob)
    blob.fill(nbytes)
    before = runtime.now
    save_context_state(process.find_context(1))
    return runtime.now - before


class TestStateSizeCosts:
    def test_small_states_pay_only_the_fixed_cost(self, runtime):
        small = save_cost(100)
        smaller = save_cost(10)
        # both inside the paper's small-state regime
        assert small == pytest.approx(smaller)
        assert small == pytest.approx(
            runtime.costs.context_state_save
            + runtime.costs.log_buffer_write,
            abs=0.01,
        )

    def test_large_states_cost_more(self):
        assert save_cost(100_000) > save_cost(1_000) + 20

    def test_cost_grows_with_size(self):
        """Monotone growth at at least the serialization rate.  (Past
        the 64 KB log buffer, appends also trigger real disk flushes,
        so growth is super-linear there — that is the disk model, not
        an accounting bug.)"""
        base = save_cost(50_000)
        double = save_cost(100_000)
        quad = save_cost(200_000)
        assert base < double < quad
        # ~98 extra KB at >= 0.35 ms/KB between the last two points
        assert quad - double >= 0.35 * 95

    def test_restore_pays_the_size_cost_too(self):
        def recovery_time(nbytes: int) -> float:
            runtime = PhoenixRuntime()
            process = runtime.spawn_process("p", machine="alpha")
            blob = process.create_component(Blob)
            blob.fill(nbytes)
            save_context_state(process.find_context(1))
            process.log.force()
            runtime.crash_process(process)
            started = runtime.now
            runtime.ensure_recovered(process)
            return runtime.now - started

        assert recovery_time(200_000) > recovery_time(100) + 50

    def test_large_state_still_roundtrips(self):
        runtime = PhoenixRuntime()
        process = runtime.spawn_process("p", machine="alpha")
        blob = process.create_component(Blob)
        blob.fill(150_000)
        save_context_state(process.find_context(1))
        process.log.force()
        runtime.crash_process(process)
        runtime.ensure_recovered(process)
        instance = process.incarnation.component_table[1].instance
        assert len(instance.payload) == 150_000
