"""System soak test: a small fleet under sustained fire.

Three machines, five processes, every component kind, checkpointing and
log GC on, crashes injected on a fixed schedule across the whole fleet.
At the end, every piece of state must be exactly what a failure-free
run produces — the library's whole promise, at once.
"""

import pytest

from repro import (
    CheckpointConfig,
    ComponentUnavailableError,
    PersistentComponent,
    PhoenixRuntime,
    RuntimeConfig,
    functional,
    persistent,
    read_only,
    subordinate,
)
from repro.faults import arm


@persistent
class Shard(PersistentComponent):
    def __init__(self, shard_id):
        self.shard_id = shard_id
        self.rows = {}
        self.writes = 0

    def put(self, key, value):
        self.writes += 1
        self.rows[key] = value
        return len(self.rows)

    def get(self, key):
        return self.rows.get(key)


@functional
class Hasher(PersistentComponent):
    def shard_for(self, key, shard_count):
        return sum(key.encode()) % shard_count


@subordinate
class WriteLog(PersistentComponent):
    def __init__(self):
        self.entries = []

    def note(self, entry):
        self.entries.append(entry)
        return len(self.entries)


@persistent
class Router(PersistentComponent):
    """Routes writes to shards via the functional hasher; keeps its own
    audit trail in a subordinate."""

    def __init__(self, shards):
        self.shards = list(shards)
        self.audit = self.new_subordinate(WriteLog)
        self.routed = 0

    def write(self, key, value):
        self.routed += 1
        index = self.hasher_index(key)
        size = self.shards[index].put(key, value)
        self.audit.note((key, index))
        return (index, size)

    def hasher_index(self, key):
        # deterministic local computation mirroring the Hasher component
        return sum(key.encode()) % len(self.shards)

    def audit_length(self):
        return len(self.audit.entries)


@persistent
class Gateway(PersistentComponent):
    """The persistent top of the tree: as long as the driver's entry
    point is persistent and never killed mid-call, everything below it
    is exactly-once regardless of crashes."""

    def __init__(self, router):
        self.router = router
        self.accepted = 0

    def write(self, key, value):
        self.accepted += 1
        return self.router.write(key, value)


@read_only
class FleetInspector(PersistentComponent):
    def __init__(self, shards):
        self.shards = list(shards)

    def lookup(self, key):
        return [shard.get(key) for shard in self.shards]


def build_fleet(runtime):
    shard_processes = [
        runtime.spawn_process(f"shard-{i}", machine=machine)
        for i, machine in enumerate(("beta", "beta", "gamma"))
    ]
    shards = [
        process.create_component(Shard, args=(i,))
        for i, process in enumerate(shard_processes)
    ]
    router_process = runtime.spawn_process("router", machine="alpha")
    router = router_process.create_component(Router, args=(shards,))
    gateway_process = runtime.spawn_process("gateway", machine="alpha")
    gateway = gateway_process.create_component(Gateway, args=(router,))
    inspect_process = runtime.spawn_process("inspect", machine="gamma")
    inspector = inspect_process.create_component(
        FleetInspector, args=(shards,)
    )
    return shard_processes, shards, router_process, router, gateway, inspector


def fleet_runtime():
    config = RuntimeConfig.optimized(
        checkpoint=CheckpointConfig(
            context_state_every_n_calls=7,
            process_checkpoint_every_n_saves=3,
            truncate_log=True,
        ),
        multicall_optimization=True,
    )
    return PhoenixRuntime(
        config=config, machine_names=("alpha", "beta", "gamma")
    )


CRASH_SCHEDULE = {
    5: ("shard-0", "method.after"),
    11: ("router", "reply.before_send"),
    17: ("shard-2", "incoming.after_log"),
    23: ("shard-1", "reply.after_send"),
    29: ("router", "outgoing.before_send"),
    35: ("shard-0", "reply.before_send"),
}


def run_soak(runtime, operations=40, with_crashes=True):
    (shard_processes, shards, router_process, router,
     gateway, inspector) = build_fleet(runtime)
    results = []
    for index in range(operations):
        if with_crashes and index in CRASH_SCHEDULE:
            target, point = CRASH_SCHEDULE[index]
            arm(runtime, target, point)
        key, value = f"key-{index}", index * 10
        results.append(gateway.write(key, value))
    # settle every process
    for process in runtime.processes():
        runtime.ensure_recovered(process)
    states = {}
    for i, process in enumerate(shard_processes):
        instance = process.component_table[1].instance
        states[f"shard-{i}"] = (dict(instance.rows), instance.writes)
    router_instance = router_process.component_table[1].instance
    states["router-routed"] = router_instance.routed
    states["router-audit"] = list(router_instance.audit.entries)
    return results, states, inspector


class TestFleetSoak:
    def test_crashed_run_matches_clean_run(self):
        clean_results, clean_states, __ = run_soak(
            fleet_runtime(), with_crashes=False
        )
        crash_results, crash_states, inspector = run_soak(
            fleet_runtime(), with_crashes=True
        )
        # every reply identical
        assert crash_results == clean_results
        # every shard's rows AND write counters identical (exactly-once)
        for name in ("shard-0", "shard-1", "shard-2"):
            assert crash_states[name] == clean_states[name], name
        # the router's audit trail (subordinate state) identical
        assert crash_states["router-audit"] == clean_states["router-audit"]
        assert crash_states["router-routed"] == clean_states["router-routed"]
        # the read-only inspector sees consistent data
        assert inspector.lookup("key-7") == [
            rows.get("key-7")
            for rows, __ in (
                crash_states["shard-0"],
                crash_states["shard-1"],
                crash_states["shard-2"],
            )
        ]

    def test_log_gc_ran_during_the_soak(self):
        runtime = fleet_runtime()
        run_soak(runtime, operations=60, with_crashes=True)
        reclaimed = sum(
            process.log.stats.bytes_reclaimed
            for process in runtime.processes()
        )
        assert reclaimed > 0

    def test_soak_is_deterministic(self):
        results_a, states_a, __ = run_soak(fleet_runtime())
        results_b, states_b, __ = run_soak(fleet_runtime())
        assert results_a == results_b
        assert states_a == states_b
