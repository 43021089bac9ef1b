"""Shared fixtures and reference components for the test suite."""

from __future__ import annotations

import pytest

# Autouse conformance oracle: after every test, the trace checker sweeps
# the logs of all runtimes the test created (opt out with
# @pytest.mark.no_conformance_check).
from repro.analysis.pytest_oracle import (  # noqa: F401
    protocol_conformance_oracle,
)

from repro import (
    CheckpointConfig,
    PersistentComponent,
    PhoenixRuntime,
    RuntimeConfig,
    functional,
    persistent,
    read_only,
    read_only_method,
    subordinate,
)
from repro.faults import uninstall_plane


@pytest.fixture(autouse=True)
def _no_leaked_fault_plane():
    """Uninstall any fault plane a test left installed (``arm`` installs
    one), so an armed crash cannot fire in the next test."""
    yield
    uninstall_plane()


# ----------------------------------------------------------------------
# reference components used across the suite
# ----------------------------------------------------------------------
@persistent
class Counter(PersistentComponent):
    """The simplest stateful component."""

    def __init__(self, start: int = 0):
        self.count = start

    def increment(self, by: int = 1) -> int:
        self.count += by
        return self.count

    @read_only_method
    def value(self) -> int:
        return self.count


@persistent
class KvStore(PersistentComponent):
    """A persistent map that counts its own (side-effecting) executions,
    so tests can assert exactly-once."""

    def __init__(self):
        self.data = {}
        self.executions = 0

    def put(self, key, value):
        self.executions += 1
        self.data[key] = value
        return len(self.data)

    def delete(self, key):
        self.executions += 1
        return self.data.pop(key, None)

    @read_only_method
    def get(self, key):
        return self.data.get(key)

    @read_only_method
    def size(self):
        return len(self.data)


@persistent
class Relay(PersistentComponent):
    """A middle-tier component: forwards to a KvStore."""

    def __init__(self, store):
        self.store = store
        self.forwarded = 0

    def put(self, key, value):
        self.forwarded += 1
        size = self.store.put(key, value)
        return (self.forwarded, size)

    @read_only_method
    def peek(self, key):
        return self.store.get(key)


@functional
class Doubler(PersistentComponent):
    def double(self, x):
        return x * 2


@read_only
class Inspector(PersistentComponent):
    """Read-only component that reads a persistent store."""

    def __init__(self, store):
        self.store = store

    def lookup(self, key):
        return self.store.get(key)

    def lookup_stateful(self, key):
        # calls a NON-read-only method of the persistent server
        return self.store.size()


@subordinate
class Tally(PersistentComponent):
    def __init__(self):
        self.entries = []

    def add(self, item):
        self.entries.append(item)
        return len(self.entries)

    def total(self):
        return len(self.entries)


@persistent
class TallyOwner(PersistentComponent):
    """Parent that keeps state in a subordinate."""

    def __init__(self):
        self.tally = self.new_subordinate(Tally)
        self.calls = 0

    def add(self, item):
        self.calls += 1
        return self.tally.add(item)

    def total(self):
        return self.tally.total()


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def runtime() -> PhoenixRuntime:
    """An optimized-config runtime on the standard two machines."""
    return PhoenixRuntime()


@pytest.fixture
def baseline_runtime() -> PhoenixRuntime:
    return PhoenixRuntime(config=RuntimeConfig.baseline())


@pytest.fixture
def checkpointing_runtime() -> PhoenixRuntime:
    config = RuntimeConfig.optimized(
        checkpoint=CheckpointConfig(
            context_state_every_n_calls=5,
            process_checkpoint_every_n_saves=2,
        )
    )
    return PhoenixRuntime(config=config)


def deploy_counter(runtime, machine="alpha", process_name="counter-proc"):
    process = runtime.spawn_process(process_name, machine=machine)
    proxy = process.create_component(Counter)
    return process, proxy


def deploy_pair(runtime, config_note="", store_machine="beta"):
    """A Relay on alpha forwarding to a KvStore on another machine."""
    store_process = runtime.spawn_process("store-proc", machine=store_machine)
    store = store_process.create_component(KvStore)
    relay_process = runtime.spawn_process("relay-proc", machine="alpha")
    relay = relay_process.create_component(Relay, args=(store,))
    return store_process, store, relay_process, relay


def instance_of(process, lid: int):
    """The live component instance behind a LID (for state assertions)."""
    return process.component_table[lid].instance
