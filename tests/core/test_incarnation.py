"""A crash is a new incarnation.

``AppProcess`` is a durable identity plus one ``Incarnation`` that owns
every volatile table and log manager.  These guards pin both halves: the
dead incarnation is unreachable once recovery is done (nothing of its
memory leaks into the next life), and no volatile field can be added to
the process itself.
"""

import gc
import weakref

import pytest

from repro import PhoenixRuntime, RuntimeConfig
from repro.concurrency import DeterministicScheduler
from repro.core.process import ProcessState
from repro.errors import ComponentUnavailableError

from ..conftest import Counter, KvStore

SHARDS = (
    {"id": "counters", "processes": ["srv"], "components": ["Counter"]},
    {"id": "stores", "processes": ["srv"], "components": ["KvStore"]},
)

#: Everything ``AppProcess`` may hold directly: identity, configuration
#: and statistics that a killed OS process's restart would also know.
DURABLE = {
    "runtime", "machine", "name", "config", "policy", "state",
    "logical_pid", "shard_router", "crash_count", "recovery_count",
    "incarnation",
}


def _deploy(sharded: bool, **overrides):
    runtime = PhoenixRuntime(
        config=RuntimeConfig.optimized(sharded_logging=sharded, **overrides)
    )
    if sharded:
        runtime.install_log_plan(SHARDS)
    runtime.external_client_machine = "alpha"
    process = runtime.spawn_process("srv", machine="beta")
    counter = process.create_component(Counter)
    store = process.create_component(KvStore)
    return runtime, process, counter, store


@pytest.mark.parametrize(
    "sharded, streams", [(False, 1), (True, 3)], ids=["one-stream", "sharded"]
)
class TestDeadIncarnation:
    def test_nothing_of_the_dead_incarnation_survives(self, sharded, streams):
        runtime, process, counter, store = _deploy(sharded)
        counter.increment()
        store.put("k", 1)
        old = process.incarnation
        assert len(old.streams) == streams
        refs = {"incarnation": weakref.ref(old)}
        refs["last calls"] = weakref.ref(old.last_calls)
        for stream in old.streams:
            refs[f"log {stream.name}"] = weakref.ref(stream.log)
        for entry in old.context_table.values():
            refs[f"context {entry.context_id}"] = weakref.ref(
                entry.context_ref
            )
        del old, stream, entry

        runtime.crash_process(process)
        runtime.ensure_recovered(process)
        assert counter.increment() == 2
        assert store.get("k") == 1
        gc.collect()
        assert [name for name, ref in refs.items() if ref() is not None] == []

    def test_a_pipelined_run_drops_the_dead_logs(self, sharded, streams):
        """Causal commit keys its watermarks by ``LogManager``.  A crash
        mid-run leaves the dead incarnation's logs as keys in the
        sessions' tables; the gate must drop them at run end, or they
        would outlive their incarnation."""
        runtime, process, counter, store = _deploy(
            sharded, group_commit=True, pipelined_commit=True
        )
        logs = [weakref.ref(stream.log) for stream in process.streams]
        assert len(logs) == streams
        held = []

        def retrying(call):
            while True:
                try:
                    return call()
                except ComponentUnavailableError:
                    continue

        def crasher():
            retrying(counter.increment)
            runtime.crash_process(process)
            held.append(any(
                ref() in table
                for ref in logs
                for table in runtime.commit._wms.values()
            ))
            return retrying(counter.increment)  # restart and recover

        def writer():
            for key in range(3):
                retrying(lambda: store.put(key, key))
            return retrying(lambda: store.get(0))

        results = DeterministicScheduler(runtime, seed=3).run(
            [crasher, writer]
        )
        assert results == [2, 0]
        assert held == [True], "no dead log was ever a watermark key"
        assert process.state is ProcessState.RUNNING
        gc.collect()
        assert [ref for ref in logs if ref() is not None] == []

    def test_the_crash_builds_one_incarnation(self, sharded, streams):
        runtime, process, counter, __ = _deploy(sharded)
        counter.increment()
        before = process.incarnation
        runtime.crash_process(process)
        crashed = process.incarnation
        assert crashed is not before
        assert crashed.context_table == {}
        # The stable files carry over, the managers do not.
        assert [s.name for s in crashed.streams] == [
            s.name for s in before.streams
        ]
        for old, new in zip(before.streams, crashed.streams):
            assert new.log is not old.log
            assert new.log.stats is old.log.stats
            assert new.trace is old.trace
        runtime.ensure_recovered(process)
        assert process.incarnation is crashed


class TestDurableIdentity:
    def test_the_process_holds_only_durable_fields(self):
        __, process, counter, __ = _deploy(sharded=False)
        assert set(vars(process)) == DURABLE
        process.crash()
        counter.increment()  # restart and recover
        assert set(vars(process)) == DURABLE
