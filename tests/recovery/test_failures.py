"""Crashes at Figure 2's pipeline points, armed through the fault plane."""

import pytest

from repro import ComponentUnavailableError, ConfigurationError
from repro.core import ProcessState
from repro.faults import active_plane, arm, uninstall_plane
from tests.conftest import Counter, KvStore, Relay


def fired() -> list[str]:
    return [spec.render() for spec in active_plane().fired]


class TestArming:
    def test_unknown_point_rejected(self, runtime):
        with pytest.raises(ConfigurationError):
            arm(runtime, "proc", "nonsense.point")
        assert active_plane() is None

    def test_bad_occurrence_rejected(self, runtime):
        with pytest.raises(ConfigurationError):
            arm(runtime, "proc", "method.before", occurrence=0)
        assert active_plane() is None

    def test_disarm_all(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        arm(runtime, "p", "method.before")
        uninstall_plane()
        assert counter.increment() == 1
        assert process.crash_count == 0


class TestFiring:
    def test_crash_at_point_kills_process(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        counter.increment()
        arm(runtime, "p", "method.before")
        # external callers get the recognized failure exception...
        with pytest.raises(ComponentUnavailableError):
            counter.increment()
        assert process.crash_count == 1
        assert fired() == ["method.before:p@1"]
        # ...and the next call finds the process recovered.  Message 1
        # was forced before the crash, so recovery *completed* the
        # in-flight call (count became 2); the external retry has no
        # call ID to dedup on and executes again — the paper's window
        # of vulnerability for external clients (Section 3.1.2).
        assert counter.increment() == 3

    def test_nth_occurrence(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        counter.increment()  # crossings before arming do not count
        arm(runtime, "p", "method.before", occurrence=3)
        counter.increment()
        counter.increment()
        assert process.crash_count == 0
        with pytest.raises(ComponentUnavailableError):
            counter.increment()
        assert process.crash_count == 1

    def test_one_shot(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        arm(runtime, "p", "method.before")
        with pytest.raises(ComponentUnavailableError):
            counter.increment()
        counter.increment()
        counter.increment()
        assert process.crash_count == 1

    def test_after_send_is_silent(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        arm(runtime, "p", "reply.after_send")
        # the caller still gets the reply; the process dies afterwards
        assert counter.increment() == 1
        assert process.state is ProcessState.CRASHED
        assert fired() == ["reply.after_send:p@1"]

    def test_arm_accepts_process_object(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        arm(runtime, process, "method.after")
        with pytest.raises(ComponentUnavailableError):
            counter.increment()
        assert process.crash_count == 1

    def test_points_do_not_fire_during_replay(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        for __ in range(3):
            counter.increment()
        runtime.crash_process(process)
        # arm a point that replay passes through; it must NOT fire for
        # replayed calls, only for the next live one
        arm(runtime, "p", "method.before", occurrence=2)
        assert counter.increment() == 4  # recovery replays 3 calls
        assert process.crash_count == 1  # no crash during replay
        with pytest.raises(ComponentUnavailableError):
            counter.increment()
        assert process.crash_count == 2  # second live call fired it

    def test_specs_fire_in_the_order_execution_crosses_them(self, runtime):
        """Two processes armed in the opposite order to the one a call
        crosses them: both fire.  A plane that only matched its first
        pending spec would skip the relay and crash the store alone."""
        runtime.external_client_machine = "alpha"
        store_process = runtime.spawn_process("store", machine="beta")
        store = store_process.create_component(KvStore)
        relay_process = runtime.spawn_process("relay", machine="alpha")
        relay = relay_process.create_component(Relay, args=(store,))
        arm(runtime, "store", "method.before")
        arm(runtime, "relay", "method.before")
        with pytest.raises(ComponentUnavailableError):
            relay.put("k", 1)
        assert fired() == ["method.before:relay@1"]
        relay.put("k", 2)
        assert fired() == ["method.before:relay@1", "method.before:store@1"]
        assert relay_process.crash_count == 1
        assert store_process.crash_count == 1
        assert active_plane().exhausted
