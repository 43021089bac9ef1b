"""Reference swizzling for messages and checkpointed state."""

import pytest

from repro import PersistentComponent, SerializationError, persistent
from repro.common import ComponentRef
from repro.common.ids import LocalRef
from repro.core.swizzle import (
    swizzle_for_message,
    swizzle_for_state,
    unswizzle_for_message,
    unswizzle_for_state,
)
from tests.conftest import Counter, TallyOwner


@pytest.fixture
def deployed(runtime):
    process = runtime.spawn_process("p", machine="alpha")
    counter_proxy = process.create_component(Counter)
    owner_proxy = process.create_component(TallyOwner)
    owner = process.incarnation.component_table[2].instance
    context = process.find_context(2)
    return runtime, process, counter_proxy, owner, context


class TestMessageSwizzling:
    def test_proxy_becomes_ref(self, deployed):
        runtime, __, proxy, __, __ = deployed
        swizzled = swizzle_for_message({"target": proxy})
        assert swizzled == {"target": ComponentRef(proxy.uri)}

    def test_ref_becomes_proxy(self, deployed):
        runtime, __, proxy, __, __ = deployed
        restored = unswizzle_for_message(
            [ComponentRef(proxy.uri)], runtime
        )
        assert restored[0] == proxy

    def test_nested_containers(self, deployed):
        runtime, __, proxy, __, __ = deployed
        value = (1, [proxy, {"deep": (proxy,)}])
        roundtrip = unswizzle_for_message(
            swizzle_for_message(value), runtime
        )
        assert roundtrip == (1, [proxy, {"deep": (proxy,)}])

    def test_plain_values_untouched(self):
        value = {"a": [1, 2.5, "x", None, True]}
        assert swizzle_for_message(value) == value

    def test_raw_component_rejected(self, deployed):
        __, __, __, owner, __ = deployed
        with pytest.raises(SerializationError, match="proxy"):
            swizzle_for_message([owner])

    def test_subordinate_handle_rejected(self, deployed):
        __, __, __, owner, __ = deployed
        with pytest.raises(SerializationError):
            swizzle_for_message(owner.tally)


class TestPlainFastPath:
    """A plain scalar or a tuple of them is deeply immutable and holds
    no reference: both directions hand it back as is.  Anything else is
    still transformed — copied, and checked for raw components."""

    @pytest.mark.parametrize(
        "value",
        ["text", 7, 2.5, True, None, b"raw", (), ("a", 1, 2.0, False, None)],
    )
    def test_plain_values_come_back_as_the_same_object(self, value, runtime):
        assert swizzle_for_message(value) is value
        assert unswizzle_for_message(value, runtime) is value

    def test_a_tuple_holding_a_proxy_is_transformed(self, deployed):
        runtime, __, proxy, __, __ = deployed
        swizzled = swizzle_for_message(("id", proxy))
        assert swizzled == ("id", ComponentRef(proxy.uri))
        restored = unswizzle_for_message(swizzled, runtime)
        assert restored == ("id", proxy)

    @pytest.mark.parametrize("mutable", [[1, 2], {"k": 1}])
    def test_a_tuple_holding_a_container_is_copied(self, mutable, runtime):
        value = ("id", mutable)
        for swizzled in (
            swizzle_for_message(value),
            unswizzle_for_message(value, runtime),
        ):
            assert swizzled == value
            assert swizzled is not value
            assert swizzled[1] is not mutable

    def test_a_raw_component_in_a_tuple_still_raises(self, deployed):
        __, __, __, owner, __ = deployed
        with pytest.raises(SerializationError, match="proxy"):
            swizzle_for_message(("id", owner))


class TestStateSwizzling:
    def test_subordinate_handle_becomes_local_ref(self, deployed):
        __, __, __, owner, context = deployed
        swizzled = swizzle_for_state(owner.tally, context)
        assert isinstance(swizzled, LocalRef)
        assert swizzled.component_lid == owner.tally.component_lid

    def test_local_ref_resolves_to_handle(self, deployed):
        __, __, __, owner, context = deployed
        handle = unswizzle_for_state(
            LocalRef(owner.tally.component_lid), context
        )
        assert handle.component is owner.tally.component

    def test_parent_self_reference_via_local_ref(self, deployed):
        __, __, __, owner, context = deployed
        restored = unswizzle_for_state(
            LocalRef(owner._phoenix_lid), context
        )
        assert restored is owner

    def test_proxy_roundtrip(self, deployed):
        __, __, proxy, __, context = deployed
        swizzled = swizzle_for_state(proxy, context)
        assert swizzled == ComponentRef(proxy.uri)
        assert unswizzle_for_state(swizzled, context) == proxy

    def test_foreign_component_rejected(self, deployed):
        runtime, process, __, __, context = deployed
        foreign = process.incarnation.component_table[1].instance  # the Counter
        with pytest.raises(SerializationError, match="another context"):
            swizzle_for_state(foreign, context)

    def test_unknown_local_ref_rejected(self, deployed):
        __, __, __, __, context = deployed
        with pytest.raises(SerializationError, match="unknown local"):
            unswizzle_for_state(LocalRef(999_999_999), context)
