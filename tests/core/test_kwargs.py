"""Keyword arguments through the full pipeline."""

import pytest

from repro import PersistentComponent, PhoenixRuntime, persistent
from repro.faults import arm
from tests.conftest import Counter


@persistent
class Flexible(PersistentComponent):
    def __init__(self):
        self.calls = []

    def record(self, a, b=2, *, c=3, ref=None):
        value = ref.increment() if ref is not None else None
        self.calls.append((a, b, c, value))
        return (a, b, c, value)


@persistent
class Forwarder(PersistentComponent):
    def __init__(self, target):
        self.target = target

    def go(self, a, **kwargs):
        return self.target.record(a, **kwargs)


class TestKwargs:
    def test_external_call_with_kwargs(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        flexible = process.create_component(Flexible)
        assert flexible.record(1, c=9) == (1, 2, 9, None)
        assert flexible.record(1, b=7, c=9) == (1, 7, 9, None)

    def test_phoenix_caller_with_kwargs(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        flexible = process.create_component(Flexible)
        other = runtime.spawn_process("q", machine="beta")
        forwarder = other.create_component(Forwarder, args=(flexible,))
        assert forwarder.go(1, c=4) == (1, 2, 4, None)

    def test_proxy_in_kwargs_resolves(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        flexible = process.create_component(Flexible)
        counter = process.create_component(Counter)
        result = flexible.record(1, ref=counter)
        assert result == (1, 2, 3, 1)

    def test_kwargs_replay_deterministically(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        flexible = process.create_component(Flexible)
        flexible.record(1, c=10)
        flexible.record(2, b=20)
        runtime.crash_process(process)
        assert flexible.record(3, b=30, c=30) == (3, 30, 30, None)
        instance = process.incarnation.component_table[1].instance
        assert instance.calls == [
            (1, 2, 10, None),
            (2, 20, 3, None),
            (3, 30, 30, None),
        ]

    def test_nested_kwargs_survive_middle_tier_crash(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        flexible = process.create_component(Flexible)
        other = runtime.spawn_process("q", machine="beta")
        forwarder = other.create_component(Forwarder, args=(flexible,))
        forwarder.go(1, c=5)
        arm(runtime, "p", "reply.before_send")
        assert forwarder.go(2, c=6) == (2, 2, 6, None)
        instance = process.incarnation.component_table[1].instance
        assert len(instance.calls) == 2  # exactly once

    def test_kwargs_ordering_is_canonical_on_the_wire(self):
        from repro.common import MethodCallMessage

        packed_a = MethodCallMessage.pack_kwargs({"b": 1, "a": 2})
        packed_b = MethodCallMessage.pack_kwargs({"a": 2, "b": 1})
        assert packed_a == packed_b == (("a", 2), ("b", 1))
