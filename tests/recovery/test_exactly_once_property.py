"""Property-based exactly-once check.

The paper's central guarantee (Section 2.2): with persistent components,
state changes after any crash/recovery sequence are exactly the same as
if there were no failures.  Hypothesis generates a random workload and a
random crash schedule; the observable outcome (every reply plus the
final component states) must equal the failure-free run's.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CheckpointConfig,
    PersistentComponent,
    PhoenixRuntime,
    RuntimeConfig,
    persistent,
)
from repro.faults import PIPELINE_POINTS, arm, uninstall_plane
from tests.conftest import KvStore


@persistent
class Gateway(PersistentComponent):
    """Persistent front-end whose ops mix reads, writes and fan-out."""

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.ops = 0

    def write_left(self, key, value):
        self.ops += 1
        return self.left.put(key, value)

    def write_right(self, key, value):
        self.ops += 1
        return self.right.put(key, value)

    def write_both(self, key, value):
        self.ops += 1
        return (self.left.put(key, value), self.right.put(key, value))

    def read(self, key):
        self.ops += 1
        return (self.left.get(key), self.right.get(key))

    def erase(self, key):
        self.ops += 1
        return (self.left.delete(key), self.right.delete(key))


OPS = ("write_left", "write_right", "write_both", "read", "erase")
# Crash points that can fire somewhere in this workload.
POINTS = sorted(PIPELINE_POINTS)
TARGETS = ("gw", "left", "right")


def build_world(checkpoint_every=None):
    config = RuntimeConfig.optimized(
        checkpoint=CheckpointConfig(
            context_state_every_n_calls=checkpoint_every,
            process_checkpoint_every_n_saves=2
            if checkpoint_every
            else None,
        )
    )
    runtime = PhoenixRuntime(config=config)
    runtime.external_client_machine = "alpha"
    left_process = runtime.spawn_process("left", machine="beta")
    left = left_process.create_component(KvStore)
    right_process = runtime.spawn_process("right", machine="beta")
    right = right_process.create_component(KvStore)
    gw_process = runtime.spawn_process("gw", machine="alpha")
    gateway = gw_process.create_component(Gateway, args=(left, right))
    processes = {
        "gw": gw_process, "left": left_process, "right": right_process
    }
    return runtime, gateway, processes


def run_workload(ops, crashes=(), checkpoint_every=None):
    """Execute the op list; return (replies, final states).

    ``crashes`` is a list of (op_index, target, point): before executing
    that op, arm a one-shot crash.  The driver is the *external* test
    code, but every op goes through the persistent Gateway first, so all
    crash handling below the gateway is Phoenix/App's problem.  Crashes
    of the gateway itself are retried by the driver (the documented
    external-client contract) — the gateway's ops counter may then
    legally differ, so exactly-once is asserted on the stores.
    """
    runtime, gateway, processes = build_world(checkpoint_every)
    crash_map: dict[int, list] = {}
    for index, target, point in crashes:
        crash_map.setdefault(index, []).append((target, point))
    replies = []
    for index, (op, key, value) in enumerate(ops):
        for target, point in crash_map.get(index, ()):  # arm
            if target == "gw" and point.startswith(
                ("outgoing", "reply_received")
            ) and op == "read":
                continue  # reads of read-only methods skip those hooks
            arm(runtime, target, point)
        bound = getattr(gateway, op)
        args = (key, value) if op.startswith("write") else (key,)
        from repro import ComponentUnavailableError

        try:
            replies.append((op, key, bound(*args)))
        except ComponentUnavailableError:
            # external retry; under-the-gateway state is exactly-once,
            # which is what we assert below
            replies.append((op, key, bound(*args)))
        uninstall_plane()
    states = {}
    for name in ("left", "right"):
        process = processes[name]
        runtime.ensure_recovered(process)
        instance = process.component_table[1].instance
        states[name] = dict(instance.data)
    return replies, states


_ops = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.sampled_from(["k1", "k2", "k3"]),
        st.integers(0, 99),
    ),
    min_size=1,
    max_size=8,
)
_crashes = st.lists(
    st.tuples(
        st.integers(0, 7),
        st.sampled_from(("left", "right")),
        st.sampled_from(POINTS),
    ),
    max_size=3,
)


class TestExactlyOnceProperty:
    @given(ops=_ops, crashes=_crashes)
    @settings(max_examples=25, deadline=None)
    def test_crashes_below_persistent_tier_never_change_outcomes(
        self, ops, crashes
    ):
        baseline_replies, baseline_states = run_workload(ops)
        crashed_replies, crashed_states = run_workload(ops, crashes)
        assert crashed_states == baseline_states
        assert crashed_replies == baseline_replies

    @given(ops=_ops, crashes=_crashes, checkpoint_every=st.sampled_from([1, 2, 5]))
    @settings(max_examples=15, deadline=None)
    def test_checkpointing_does_not_change_outcomes(
        self, ops, crashes, checkpoint_every
    ):
        baseline_replies, baseline_states = run_workload(ops)
        replies, states = run_workload(
            ops, crashes, checkpoint_every=checkpoint_every
        )
        assert states == baseline_states
        assert replies == baseline_replies

    @given(ops=_ops)
    @settings(max_examples=10, deadline=None)
    def test_crash_after_every_op_still_exactly_once(self, ops):
        crashes = [
            (index, ("left", "right")[index % 2], "reply.after_send")
            for index in range(len(ops))
        ]
        baseline_replies, baseline_states = run_workload(ops)
        replies, states = run_workload(ops, crashes)
        assert states == baseline_states
        assert replies == baseline_replies
