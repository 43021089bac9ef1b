"""Sharded logging: plan normalization, the router, stream routing,
per-stream truncation, and parallel shard recovery (serial runtime).

The committed LogPlan made executable (docs/internals.md section 16):
behind ``config.sharded_logging`` a process hosts one log stream per
shard the plan assigns to it.  Flag-off, stream 0 is the process's own
log — these tests pin that identity — and flag-on, every append/force/replay touches
exactly the stream its component lives on.
"""

from pathlib import Path

import pytest

from repro import (
    PersistentComponent,
    PhoenixRuntime,
    RuntimeConfig,
    persistent,
)
from repro.core.config import CheckpointConfig
from repro.errors import ConfigurationError
from repro.faults import plane as faultplane
from repro.log.sharding import ShardRouter, plan_shards

from ..conftest import Counter, KvStore, TallyOwner

SHARDS = (
    {
        "id": "counters",
        "processes": ["srv"],
        "components": ["Counter", "TallyOwner"],
    },
    {"id": "stores", "processes": ["srv"], "components": ["KvStore"]},
)


def _sharded_runtime(**overrides):
    runtime = PhoenixRuntime(
        config=RuntimeConfig.optimized(sharded_logging=True, **overrides)
    )
    runtime.install_log_plan(SHARDS)
    runtime.external_client_machine = "alpha"
    return runtime


class TestPlanShards:
    def test_bare_list_accepted(self):
        assert plan_shards(list(SHARDS)) == list(SHARDS)

    def test_shards_attribute_accepted(self):
        class PlanLike:
            shards = list(SHARDS)

        assert plan_shards(PlanLike()) == list(SHARDS)

    def test_missing_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="missing keys"):
            plan_shards([{"id": "x", "processes": []}])


class TestShardRouter:
    def test_hosted_classes_map_to_extra_streams(self):
        router = ShardRouter(list(SHARDS), "srv")
        assert router.stream_count == 3
        assert router.shard_ids == ["counters", "stores"]
        assert router.stream_for_class("Counter") == 1
        assert router.stream_for_class("TallyOwner") == 1
        assert router.stream_for_class("KvStore") == 2

    def test_unplanned_class_falls_back_to_stream_zero(self):
        router = ShardRouter(list(SHARDS), "srv")
        assert router.stream_for_class("SomethingElse") == 0

    def test_other_process_hosts_no_shards(self):
        router = ShardRouter(list(SHARDS), "other")
        assert router.stream_count == 1
        assert router.stream_for_class("Counter") == 0


class TestFlagOffIdentity:
    def test_single_stream_wraps_the_legacy_objects(self):
        runtime = PhoenixRuntime(config=RuntimeConfig.optimized())
        runtime.install_log_plan(SHARDS)  # a plan alone must not shard
        process = runtime.spawn_process("srv", machine="beta")
        assert len(process.streams) == 1
        stream = process.streams[0]
        assert stream.shard_id is None
        assert stream.log is process.log
        assert stream.process is process
        assert stream.log.process_name == "beta-srv"

    def test_flag_on_without_a_plan_stays_single_stream(self):
        runtime = PhoenixRuntime(
            config=RuntimeConfig.optimized(sharded_logging=True)
        )
        runtime.install_log_plan(None)
        process = runtime.spawn_process("srv", machine="beta")
        assert len(process.streams) == 1

    def test_flag_on_with_a_corrupt_committed_plan_is_an_error(
        self, tmp_path, monkeypatch
    ):
        """A plan file that exists but cannot be routed by must not
        quietly turn sharding off."""
        committed = (
            Path(__file__).resolve().parents[2]
            / "plans" / "apps.logplan.json"
        )
        truncated = tmp_path / "apps.logplan.json"
        truncated.write_text(committed.read_text()[:2000])
        monkeypatch.setenv("REPRO_LOG_PLANS", str(truncated))
        runtime = PhoenixRuntime(
            config=RuntimeConfig.optimized(sharded_logging=True)
        )
        for __ in range(2):  # the refusal is not a one-shot
            with pytest.raises(ConfigurationError, match=str(truncated)):
                runtime.spawn_process("srv", machine="beta")


class TestFlagOnRouting:
    def test_components_append_to_their_shards_stream(self):
        runtime = _sharded_runtime()
        process = runtime.spawn_process("srv", machine="beta")
        counter = process.create_component(Counter)
        store = process.create_component(KvStore)
        counter.increment()
        store.put("k", "v")

        names = [s.log.process_name for s in process.streams]
        assert names == [
            "beta-srv", "beta-srv@counters", "beta-srv@stores",
        ]
        by_cid = {
            cid: {r.context_id for __, r in s.log.scan(0)} == {cid}
            for cid, s in ((1, process.streams[1]), (2, process.streams[2]))
        }
        assert by_cid == {1: True, 2: True}
        assert process.stream_index(1) == 1
        assert process.stream_index(2) == 2

    def test_subordinates_follow_their_parent(self):
        runtime = _sharded_runtime()
        process = runtime.spawn_process("srv", machine="beta")
        owner = process.create_component(TallyOwner)
        owner.add("x")
        # TallyOwner is context 1 on the counters stream; its
        # subordinate's LID-space context ids resolve to the same
        # stream without their own assignment.
        from repro.core.context import SUB_LID_BASE

        assert process.stream_index(1) == 1
        assert process.stream_index(1 * SUB_LID_BASE + 1) == 1
        # every record (owner and subordinate) landed on one stream
        assert process.streams[2].log.stats.appends == 0


class TestShardedRecovery:
    def _deploy(self, **overrides):
        runtime = _sharded_runtime(**overrides)
        process = runtime.spawn_process("srv", machine="beta")
        counter = process.create_component(Counter)
        store = process.create_component(KvStore)
        return runtime, process, counter, store

    def test_crash_recover_restores_both_shards(self):
        runtime, process, counter, store = self._deploy()
        for i in range(5):
            counter.increment()
        store.put("k", 41)
        process.crash()
        runtime.ensure_recovered(process)
        # Both shards' state replayed from their own streams.
        assert counter.increment() == 6
        assert store.get("k") == 41

    def test_recover_twice_is_idempotent(self):
        runtime, process, counter, store = self._deploy()
        counter.increment()
        store.put("k", 1)
        process.crash()
        runtime.ensure_recovered(process)
        process.crash()
        runtime.ensure_recovered(process)
        assert counter.increment() == 2
        assert store.get("k") == 1

    def test_context_stream_assignments_survive_recovery(self):
        runtime, process, counter, store = self._deploy()
        counter.increment()
        store.put("k", 1)
        process.crash()
        runtime.ensure_recovered(process)
        assert process.stream_index(1) == 1
        assert process.stream_index(2) == 2
        # post-recovery traffic still routes to the owning streams
        before = process.streams[2].log.stats.appends
        store.put("k2", 2)
        assert process.streams[2].log.stats.appends > before

    def test_recovery_time_tracks_the_largest_shard(self):
        """Serial sharded recovery drains the streams as clock *lanes*:
        elapsed simulated time is the largest shard's drain, not the
        sum.  Pin it against the flag-off runtime replaying the same
        records from one log."""

        def drive(sharded: bool) -> float:
            if sharded:
                runtime, process, counter, store = self._deploy()
            else:
                runtime = PhoenixRuntime(config=RuntimeConfig.optimized())
                runtime.external_client_machine = "alpha"
                process = runtime.spawn_process("srv", machine="beta")
                counter = process.create_component(Counter)
                store = process.create_component(KvStore)
            for i in range(20):
                counter.increment()
                store.put(f"k{i}", i)
            process.crash()
            started = runtime.clock.now
            runtime.ensure_recovered(process)
            assert counter.increment() == 21
            return runtime.clock.now - started

        assert drive(sharded=True) < drive(sharded=False)


@persistent
class LaneStore(PersistentComponent):
    def __init__(self):
        self.data = {}

    def put(self, key, value):
        self.data[key] = value
        return len(self.data)


@persistent
class LaneRelay(PersistentComponent):
    def __init__(self, store):
        self.store = store

    def put(self, key, value):
        return self.store.put(key, value)


@persistent
class LaneCaller(PersistentComponent):
    """Reports the relay's answer, or the error its call raised."""

    def __init__(self, relay):
        self.relay = relay

    def call(self, key, value):
        try:
            return ["ok", self.relay.put(key, value)]
        except Exception as exc:  # noqa: BLE001 - the reply is the report
            return ["err", f"{type(exc).__name__}: {exc}"]


#: The store's stream is listed last, so serial sharded recovery drains
#: the relay's shard first.
LANE_SHARDS = (
    {"id": "relays", "processes": ["srv"], "components": ["LaneRelay"]},
    {"id": "stores", "processes": ["srv"], "components": ["LaneStore"]},
)


class TestLiveCallIntoALaterShard:
    """The relay's last call, replayed final, goes live into the store,
    whose shard has not been replayed yet: the published table must
    replay the store first, under every schedule."""

    @pytest.mark.parametrize(
        "flags",
        [{}, {"sharded_logging": True}, {"on_demand_recovery": True}],
        ids=["flag-off", "sharded", "on-demand"],
    )
    def test_retry_is_answered_exactly_once(self, flags):
        runtime = PhoenixRuntime(config=RuntimeConfig.optimized(**flags))
        runtime.install_log_plan(LANE_SHARDS)
        runtime.external_client_machine = "alpha"
        srv = runtime.spawn_process("srv", machine="beta")
        store = srv.create_component(LaneStore)
        relay = srv.create_component(LaneRelay, args=(store,))
        drv = runtime.spawn_process("drv", machine="alpha")
        caller = drv.create_component(LaneCaller, args=(relay,))
        for i in range(3):
            assert caller.call(f"k{i}", i) == ["ok", i + 1]
        faultplane.arm(runtime, srv, "reply.before_send")
        assert caller.call("x", 99) == ["ok", 4]
        runtime.ensure_recovered(srv)
        assert store.put("y", 1) == 5


class TestPerStreamTruncation:
    def test_gc_publishes_each_streams_anchor(self):
        runtime, process, counter, store = TestShardedRecovery()._deploy(
            checkpoint=CheckpointConfig(
                context_state_every_n_calls=2,
                process_checkpoint_every_n_saves=2,
                truncate_log=True,
            )
        )
        for i in range(12):
            counter.increment()
            store.put(f"k{i}", i)
        process.collect_log_garbage()
        for stream in process.streams[1:]:
            anchor = stream.log.read_well_known_lsn()
            assert anchor is not None
            # the anchor is a readable boundary: scans from it succeed
            list(stream.log.scan(anchor))
        process.crash()
        runtime.ensure_recovered(process)
        assert counter.increment() == 13
        assert store.get("k11") == 11
