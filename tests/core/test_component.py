"""Component base class, subordinate handles, class registry."""

import pytest

from repro import (
    ConfigurationError,
    PersistentComponent,
    persistent,
    subordinate,
)
from repro.core import ComponentClassRegistry
from repro.errors import InvariantViolationError, UnknownComponentClassError
from tests.conftest import Counter, Tally, TallyOwner


class TestBaseClass:
    def test_unattached_defaults(self):
        counter = Counter.__new__(Counter)
        assert counter.phoenix_uri == ""
        assert counter._phoenix_lid == -1

    def test_attached_fields(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        process.create_component(Counter)
        instance = process.incarnation.component_table[1].instance
        assert instance.phoenix_uri == "phoenix://alpha/p/1"
        assert instance.phoenix_type.value == "persistent"

    def test_new_subordinate_requires_attachment(self):
        owner = TallyOwner.__new__(TallyOwner)
        with pytest.raises(InvariantViolationError):
            owner.new_subordinate(Tally)

    def test_subordinate_self_reference_forbidden(self, runtime):
        @persistent
        class Parent(PersistentComponent):
            def __init__(self):
                self.child = self.new_subordinate(Leaky)

            def leak(self):
                return self.child.escape()

        @subordinate
        class Leaky(PersistentComponent):
            def escape(self):
                return self.self_reference()

        process = runtime.spawn_process("p", machine="alpha")
        parent = process.create_component(Parent)
        from repro import ApplicationError

        with pytest.raises(ApplicationError, match="subordinate"):
            parent.leak()


class TestSubordinateHandle:
    def test_forwards_methods_and_fields(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        process.create_component(TallyOwner)
        owner = process.incarnation.component_table[1].instance
        handle = owner.tally
        # called from outside any context: the access check must fire
        with pytest.raises(ConfigurationError):
            handle.add("from outside")

    def test_component_lid_exposed(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        process.create_component(TallyOwner)
        owner = process.incarnation.component_table[1].instance
        assert owner.tally.component_lid > 100_000

    def test_repr(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        process.create_component(TallyOwner)
        owner = process.incarnation.component_table[1].instance
        assert "Tally" in repr(owner.tally)


class TestClassRegistry:
    def test_register_and_lookup(self):
        registry = ComponentClassRegistry()
        name = registry.register(Counter)
        assert registry.lookup(name) is Counter

    def test_register_idempotent(self):
        registry = ComponentClassRegistry()
        assert registry.register(Counter) == registry.register(Counter)

    def test_name_collision_rejected(self):
        registry = ComponentClassRegistry()
        registry.register(Counter)

        fake = type("Counter", (PersistentComponent,), {})
        fake.__module__ = Counter.__module__
        fake.__qualname__ = Counter.__qualname__
        with pytest.raises(ConfigurationError):
            registry.register(fake)

    def test_unknown_lookup(self):
        with pytest.raises(UnknownComponentClassError):
            ComponentClassRegistry().lookup("no.such.Class")
