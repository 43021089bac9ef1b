"""AppProcess: deployment validation, state transitions, stats."""

import pytest

from repro import (
    ComponentType,
    ComponentUnavailableError,
    DeploymentError,
    PersistentComponent,
    PhoenixRuntime,
    persistent,
)
from repro.core import ProcessState
from tests.conftest import Counter, Tally


class Undecorated(PersistentComponent):
    pass


class PlainClass:
    def ping(self):
        return "pong"


class TestDeploymentValidation:
    def test_undecorated_class_rejected(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        with pytest.raises(DeploymentError, match="attribute"):
            process.create_component(Undecorated)

    def test_phoenix_type_requires_base_class(self, runtime):
        @persistent
        class NotAComponent:
            pass

        process = runtime.spawn_process("p", machine="alpha")
        with pytest.raises(DeploymentError, match="PersistentComponent"):
            process.create_component(NotAComponent)

    def test_native_types_accept_plain_classes(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        proxy = process.create_component(
            PlainClass, component_type=ComponentType.MARSHAL_BY_REF
        )
        assert proxy.ping() == "pong"

    def test_subordinate_cannot_be_parent(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        with pytest.raises(DeploymentError, match="new_subordinate"):
            process.create_component(Tally)

    def test_duplicate_process_name_rejected(self, runtime):
        runtime.spawn_process("p", machine="alpha")
        with pytest.raises(DeploymentError):
            runtime.spawn_process("p", machine="alpha")

    def test_same_name_on_other_machine_allowed(self, runtime):
        runtime.spawn_process("p", machine="alpha")
        runtime.spawn_process("p", machine="beta")

    def test_create_on_crashed_process_rejected(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        runtime.crash_process(process)
        with pytest.raises(ComponentUnavailableError):
            process.create_component(Counter)

    def test_lids_sequential_per_process(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        first = process.create_component(Counter)
        second = process.create_component(Counter)
        assert first.uri.endswith("/1")
        assert second.uri.endswith("/2")

    def test_creation_is_forced(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        forces = process.log.stats.forces_performed
        process.create_component(Counter)
        assert process.log.stats.forces_performed == forces + 1


class TestStateTransitions:
    def test_lifecycle(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        assert process.state is ProcessState.RUNNING
        process.crash()
        assert process.state is ProcessState.CRASHED
        runtime.ensure_recovered(process)
        assert process.state is ProcessState.RUNNING

    def test_crash_is_idempotent(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        process.crash()
        process.crash()
        assert process.crash_count == 1

    def test_crash_wipes_tables(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        process.create_component(Counter)
        process.crash()
        assert process.incarnation.context_table == {}
        assert process.incarnation.component_table == {}
        assert len(process.incarnation.last_calls) == 0

    def test_ensure_recovered_noop_when_running(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        runtime.ensure_recovered(process)
        assert process.recovery_count == 0


class TestRuntimeStats:
    def test_stats_aggregate(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        counter.increment()
        stats = runtime.stats()
        assert stats.log_forces > 0
        assert stats.log_appends > 0
        assert stats.disk_writes > 0
        runtime.crash_process(process)
        counter.increment()
        stats = runtime.stats()
        assert stats.crashes == 1
        assert stats.recoveries == 1

    def test_lookup_helpers(self, runtime):
        process = runtime.spawn_process("p", machine="beta")
        assert runtime.process("beta", "p") is process
        assert process in runtime.processes()
        with pytest.raises(DeploymentError):
            runtime.process("alpha", "ghost")

    def test_repr(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        assert "running" in repr(process)


class TestDescribe:
    def test_fleet_report(self, runtime):
        from tests.conftest import TallyOwner

        process = runtime.spawn_process("p", machine="alpha")
        owner = process.create_component(TallyOwner)
        owner.add("x")
        runtime.crash_process(process)
        owner.add("y")
        report = runtime.describe()
        assert "machine alpha" in report
        assert "process p [running]" in report
        assert "TallyOwner (persistent)" in report
        assert "1 subordinates" in report
        assert "crashes=1" in report
        assert "recoveries=1" in report
        assert "network:" in report


class TestForceCoalescer:
    """A log stream counts same-instant force requests after a write as
    coalesced — accounting only, never a change to force behaviour."""

    def _stream_after_a_write(self, runtime):
        """Stream 0 of a fresh process, whose last force wrote at the
        current instant: creating a component forces its creation
        record through the stream."""
        process = runtime.spawn_process("p", machine="alpha")
        stream = process.streams[0]
        process.create_component(Counter)
        assert stream.log.stats.forces_performed == 1
        return stream

    def test_same_instant_empty_force_is_coalesced(self, runtime):
        stream = self._stream_after_a_write(runtime)
        stats = stream.log.stats
        requested = stats.forces_requested
        # two more requests at the write's completion instant
        assert stream.force() is False
        assert stream.force() is False
        assert stats.coalesced_forces == 2
        # delegation is unchanged: both requests still reached the log
        assert stats.forces_requested == requested + 2
        assert stats.forces_performed == 1

    def test_later_empty_force_is_not_coalesced(self, runtime):
        stream = self._stream_after_a_write(runtime)
        runtime.clock.advance(1.0)
        assert stream.force() is False
        assert stream.log.stats.coalesced_forces == 0

    def test_empty_force_before_any_write_is_not_coalesced(self, runtime):
        stream = runtime.spawn_process("p", machine="alpha").streams[0]
        assert stream.force() is False
        assert stream.log.stats.coalesced_forces == 0

    def test_processes_route_forces_through_coalescer(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        assert process.streams[0].log is process.log
        counter = process.create_component(Counter)
        counter.increment()
        # force counts flow into the same LogStats the tables report
        assert process.log.stats.forces_performed >= 1
