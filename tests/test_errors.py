"""Exception hierarchy contracts."""

import pytest

from repro import (
    ApplicationError,
    ComponentUnavailableError,
    ConfigurationError,
    DeploymentError,
    InvariantViolationError,
    LogCorruptionError,
    PhoenixError,
    RecoveryError,
    RetriesExhaustedError,
    SerializationError,
    UnknownComponentClassError,
)
from repro.errors import CrashSignal
from repro.faults import arm


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc_class",
        [
            ApplicationError,
            ComponentUnavailableError,
            ConfigurationError,
            DeploymentError,
            InvariantViolationError,
            LogCorruptionError,
            RecoveryError,
            RetriesExhaustedError,
            SerializationError,
            UnknownComponentClassError,
        ],
    )
    def test_everything_derives_from_phoenix_error(self, exc_class):
        assert issubclass(exc_class, PhoenixError)
        assert issubclass(exc_class, Exception)

    def test_crash_signal_is_not_an_exception(self):
        """CrashSignal must not be catchable by application
        ``except Exception`` handlers — a simulated crash may not be
        swallowed by component code."""
        assert issubclass(CrashSignal, BaseException)
        assert not issubclass(CrashSignal, Exception)

    def test_crash_signal_defaults_to_a_fresh_crash_of_no_process(self):
        signal = CrashSignal("p", "method.before")
        assert signal.process is None
        assert signal.stale is False
        assert signal.process_name == "p"
        assert signal.point == "method.before"

    def test_component_unavailable_carries_uri(self):
        exc = ComponentUnavailableError("phoenix://a/p/1", "crashed")
        assert exc.uri == "phoenix://a/p/1"
        assert "crashed" in str(exc)

    def test_retries_exhausted_carries_attempts(self):
        exc = RetriesExhaustedError("phoenix://a/p/1", 9)
        assert exc.attempts == 9
        assert "9" in str(exc)

    def test_application_error_carries_original_type(self):
        exc = ApplicationError("ValueError: nope", original_type="ValueError")
        assert exc.original_type == "ValueError"


class TestCrashSignalCannotBeSwallowed:
    def test_component_cannot_catch_a_crash(self, runtime):
        from repro import PersistentComponent, persistent
        from tests.conftest import KvStore

        @persistent
        class Swallower(PersistentComponent):
            def __init__(self, store):
                self.store = store
                self.swallowed = 0

            def try_hard(self, key):
                try:
                    return self.store.put(key, 1)
                except Exception:
                    # an app bug that eats everything — it must NOT be
                    # able to eat its own process's crash
                    self.swallowed += 1
                    return -1

        store_process = runtime.spawn_process("sp", machine="alpha")
        store = store_process.create_component(KvStore)
        process = runtime.spawn_process("p", machine="alpha")
        swallower = process.create_component(Swallower, args=(store,))
        swallower.try_hard("a")
        # crash the swallower's own process at its outgoing-call hook
        arm(runtime, "p", "outgoing.before_log")
        with pytest.raises(ComponentUnavailableError):
            swallower.try_hard("b")
        runtime.ensure_recovered(process)
        instance = process.incarnation.component_table[1].instance
        assert instance.swallowed == 0
