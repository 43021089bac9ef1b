"""Call pipeline semantics: proxies, arguments, exceptions, restrictions."""

import pytest

from repro import (
    ApplicationError,
    ComponentProxy,
    ConfigurationError,
    DeploymentError,
    PersistentComponent,
    PhoenixRuntime,
    functional,
    persistent,
    read_only,
    subordinate,
)
from tests.conftest import (
    Counter,
    Doubler,
    Inspector,
    KvStore,
    Relay,
    Tally,
    TallyOwner,
    deploy_pair,
    instance_of,
)


@persistent
class Echo(PersistentComponent):
    def __init__(self):
        self.seen = []

    def echo(self, *args):
        self.seen.append(args)
        return args

    def boom(self):
        raise ValueError("deliberate")

    def call_me_back(self, other):
        # receives a proxy in an argument and uses it
        return other.increment(10)


class TestBasicCalls:
    def test_return_value(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        assert counter.increment(3) == 3
        assert counter.increment() == 4

    def test_constructor_args(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter, args=(100,))
        assert counter.increment() == 101

    def test_complex_args_roundtrip(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        echo = process.create_component(Echo)
        payload = ({"k": [1, 2]}, (3.5, None), "text")
        assert echo.echo(*payload) == payload

    def test_proxy_in_arguments_resolves(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        echo = process.create_component(Echo)
        counter = process.create_component(Counter)
        assert echo.call_me_back(counter) == 10

    def test_cross_machine_call(self, runtime):
        process = runtime.spawn_process("p", machine="beta")
        counter = process.create_component(Counter)
        assert counter.increment() == 1
        assert runtime.cluster.network.stats.messages >= 0  # local external

    def test_proxy_equality_and_hash(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        again = runtime.proxy_for(counter.uri)
        assert counter == again
        assert len({counter, again}) == 1

    def test_proxy_immutable(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        with pytest.raises(AttributeError):
            counter.count = 5

    def test_proxy_repr(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        assert "phoenix://" in repr(counter)

    def test_unknown_process_uri(self, runtime):
        proxy = runtime.proxy_for("phoenix://alpha/ghost/1")
        with pytest.raises(DeploymentError):
            proxy.anything()


class TestApplicationErrors:
    def test_component_exception_surfaces_as_application_error(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        echo = process.create_component(Echo)
        with pytest.raises(ApplicationError, match="deliberate"):
            echo.boom()

    def test_component_survives_its_own_exception(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        echo = process.create_component(Echo)
        with pytest.raises(ApplicationError):
            echo.boom()
        assert echo.echo(1) == (1,)

    def test_unserializable_argument_fails_at_the_client(self, runtime):
        from repro import SerializationError

        store_process = runtime.spawn_process("sp", machine="beta")
        store = store_process.create_component(KvStore)
        relay_process = runtime.spawn_process("rp", machine="alpha")
        relay = relay_process.create_component(Relay, args=(store,))
        with pytest.raises(SerializationError):
            relay.put("k", object())  # unserializable arg

    def test_nested_exception_propagates_through_middle_tier(self, runtime):
        @persistent
        class Fussy(PersistentComponent):
            def reject(self, value):
                raise KeyError(value)

        store_process = runtime.spawn_process("sp", machine="beta")
        fussy = store_process.create_component(Fussy)
        relay_process = runtime.spawn_process("rp", machine="alpha")

        @persistent
        class Middle(PersistentComponent):
            def __init__(self, target):
                self.target = target

            def forward(self, value):
                return self.target.reject(value)

        middle = relay_process.create_component(Middle, args=(fussy,))
        with pytest.raises(ApplicationError, match="KeyError"):
            middle.forward("nope")


class TestSubordinates:
    def test_parent_uses_subordinate_state(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        owner = process.create_component(TallyOwner)
        assert owner.add("x") == 1
        assert owner.add("y") == 2
        assert owner.total() == 2

    def test_subordinate_not_callable_from_outside(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        owner = process.create_component(TallyOwner)
        owner.add("x")
        # find the subordinate's URI and try to call it externally
        sub_lid = next(
            lid for lid in process.incarnation.component_table if lid > 100_000
        )
        from repro.common import component_uri

        sneaky = runtime.proxy_for(
            component_uri("alpha", "p", sub_lid)
        )
        with pytest.raises(ConfigurationError, match="subordinate"):
            sneaky.add("sneak")

    def test_subordinate_cannot_be_created_as_parent(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        with pytest.raises(DeploymentError):
            process.create_component(Tally)

    def test_only_persistent_parents_get_subordinates(self, runtime):
        @read_only
        class BadParent(PersistentComponent):
            def make(self):
                return self.new_subordinate(Tally)

        process = runtime.spawn_process("p", machine="alpha")
        store_process = runtime.spawn_process("sp", machine="alpha")
        store = store_process.create_component(KvStore)
        bad = process.create_component(BadParent)
        with pytest.raises(ApplicationError, match="subordinate"):
            bad.make()

    def test_subordinate_calls_cost_almost_nothing(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        owner = process.create_component(TallyOwner)
        owner.add("warm")
        # the parent call costs ~2 forces; the subordinate call inside
        # adds only the direct-call time
        before = runtime.now
        owner.add("x")
        elapsed = runtime.now - before
        assert elapsed < 25  # dominated by the external call, no extra forces


class TestFunctionalRestrictions:
    def test_functional_component_works(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        doubler = process.create_component(Doubler)
        assert doubler.double(21) == 42

    def test_functional_may_call_functional(self, runtime):
        @functional
        class Outer(PersistentComponent):
            def __init__(self, inner):
                self.inner = inner

            def quadruple(self, x):
                return self.inner.double(self.inner.double(x))

        process = runtime.spawn_process("p", machine="alpha")
        inner = process.create_component(Doubler)
        outer = process.create_component(Outer, args=(inner,))
        assert outer.quadruple(2) == 8

    def test_functional_calling_persistent_rejected(self, runtime):
        @functional
        class Rogue(PersistentComponent):
            def __init__(self, target):
                self.target = target

            def misbehave(self):
                return self.target.increment()

        process = runtime.spawn_process("p", machine="alpha")
        counter = process.create_component(Counter)
        rogue = process.create_component(Rogue, args=(counter,))
        with pytest.raises(ApplicationError, match="functional"):
            rogue.misbehave()
            rogue.misbehave()  # learned by the first reply at the latest


class TestReadOnlyComponents:
    def test_read_only_reads_persistent(self, runtime):
        store_process = runtime.spawn_process("sp", machine="beta")
        store = store_process.create_component(KvStore)
        store.put("k", "v")
        ro_process = runtime.spawn_process("rp", machine="alpha")
        inspector = ro_process.create_component(Inspector, args=(store,))
        assert inspector.lookup("k") == "v"

    def test_read_only_calls_leave_no_last_call_entries(self, runtime):
        store_process = runtime.spawn_process("sp", machine="beta")
        store = store_process.create_component(KvStore)
        ro_process = runtime.spawn_process("rp", machine="alpha")
        inspector = ro_process.create_component(Inspector, args=(store,))
        inspector.lookup_stateful("k")  # non-read-only server method
        assert len(store_process.incarnation.last_calls) == 0


class TestReentrancy:
    def test_cross_context_cycle_rejected(self, runtime):
        """A -> B -> A violates the single-threaded-context rule; the
        paper's PWD requirement forbids it (a real deployment would
        deadlock).  The runtime surfaces it as an error."""

        @persistent
        class Ping(PersistentComponent):
            def __init__(self):
                self.peer = None

            def set_peer(self, peer):
                self.peer = peer

            def start(self):
                return self.peer.bounce()

            def land(self):
                return "landed"

        @persistent
        class Pong(PersistentComponent):
            def __init__(self):
                self.peer = None

            def set_peer(self, peer):
                self.peer = peer

            def bounce(self):
                # calls back into the busy Ping context
                return self.peer.land()

        process_a = runtime.spawn_process("pa", machine="alpha")
        process_b = runtime.spawn_process("pb", machine="alpha")
        ping = process_a.create_component(Ping)
        pong = process_b.create_component(Pong)
        ping.set_peer(pong)
        pong.set_peer(ping)
        with pytest.raises(ApplicationError, match="re-entrant"):
            ping.start()


class TestSelfReference:
    def test_self_reference_returns_working_proxy(self, runtime):
        @persistent
        class SelfAware(PersistentComponent):
            def __init__(self):
                self.count = 0

            def me(self):
                return self.self_reference()

            def bump(self):
                self.count += 1
                return self.count

        process = runtime.spawn_process("p", machine="alpha")
        component = process.create_component(SelfAware)
        me = component.me()
        assert isinstance(me, ComponentProxy)
        assert me.bump() == 1
