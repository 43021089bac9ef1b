"""Field capture and restore, including a hypothesis identity check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PersistentComponent, SerializationError, persistent
from repro.checkpoint import capture_fields, restore_fields
from tests.conftest import Counter, KvStore, TallyOwner


@pytest.fixture
def deployed_counter(runtime):
    process = runtime.spawn_process("p", machine="alpha")
    process.create_component(Counter, args=(7,))
    instance = process.incarnation.component_table[1].instance
    context = process.find_context(1)
    return process, instance, context


class TestCapture:
    def test_captures_plain_fields(self, deployed_counter):
        __, instance, context = deployed_counter
        assert capture_fields(instance, context) == {"count": 7}

    def test_excludes_phoenix_bookkeeping(self, deployed_counter):
        __, instance, context = deployed_counter
        fields = capture_fields(instance, context)
        assert not any(k.startswith("_phoenix_") for k in fields)

    def test_unserializable_field_named_in_error(self, deployed_counter):
        __, instance, context = deployed_counter
        instance.gadget = object()
        with pytest.raises(SerializationError, match="gadget"):
            capture_fields(instance, context)

    def test_subordinate_handles_swizzled(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        process.create_component(TallyOwner)
        owner = process.incarnation.component_table[1].instance
        context = process.find_context(1)
        fields = capture_fields(owner, context)
        from repro.common.ids import LocalRef

        assert isinstance(fields["tally"], LocalRef)

    def test_proxies_swizzled(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        process.create_component(KvStore)
        store = process.incarnation.component_table[2].instance
        store.ref = counter
        context = process.find_context(2)
        from repro.common import ComponentRef

        assert capture_fields(store, context)["ref"] == ComponentRef(
            counter.uri
        )


class TestRestore:
    def test_roundtrip_onto_bare_instance(self, deployed_counter):
        process, instance, context = deployed_counter
        instance.count = 42
        instance.extra = {"list": [1, 2]}
        fields = capture_fields(instance, context)
        bare = Counter.__new__(Counter)
        restore_fields(bare, fields, context)
        assert bare.count == 42
        assert bare.extra == {"list": [1, 2]}

    def test_restore_resolves_proxies(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        process.create_component(KvStore)
        store = process.incarnation.component_table[2].instance
        store.ref = counter
        context = process.find_context(2)
        fields = capture_fields(store, context)
        bare = KvStore.__new__(KvStore)
        restore_fields(bare, fields, context)
        assert bare.ref == counter
        assert bare.ref.increment() == 1  # the proxy works


_field_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(10**12), 10**12),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=20),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=6), children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
    ),
    max_leaves=10,
)


class TestPropertyRoundtrip:
    @given(
        st.dictionaries(
            st.text(
                alphabet=st.characters(min_codepoint=97, max_codepoint=122),
                min_size=1,
                max_size=8,
            ),
            _field_values,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_fields_roundtrip(self, fields):
        from repro import PhoenixRuntime

        runtime = PhoenixRuntime()
        process = runtime.spawn_process("p", machine="alpha")
        process.create_component(Counter)
        instance = process.incarnation.component_table[1].instance
        context = process.find_context(1)
        for key, value in fields.items():
            setattr(instance, key, value)
        captured = capture_fields(instance, context)
        bare = Counter.__new__(Counter)
        restore_fields(bare, captured, context)
        for key, value in fields.items():
            assert getattr(bare, key) == value
