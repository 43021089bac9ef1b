"""Context internals: call IDs, subordinate counters, replay state."""

import pytest

from repro import ConfigurationError, PhoenixRuntime
from repro.common import GlobalCallId, ReplyMessage
from repro.core.context import SUB_LID_BASE, ContextMode
from tests.conftest import Counter, Tally, TallyOwner


@pytest.fixture
def context(runtime):
    process = runtime.spawn_process("p", machine="alpha")
    process.create_component(Counter)
    return process.find_context(1)


class TestCallIds:
    def test_ids_are_sequential_and_deterministic(self, context):
        first = context.allocate_call_id()
        second = context.allocate_call_id()
        assert first.seq == 0 and second.seq == 1
        assert first.caller_key == second.caller_key

    def test_id_carries_full_identity(self, context):
        call_id = context.allocate_call_id()
        assert call_id.machine == "alpha"
        assert call_id.process_lid == context.process.logical_pid
        assert call_id.component_lid == context.context_id


class TestSubordinateLids:
    def test_lid_derivation(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        process.create_component(TallyOwner)
        owner = process.incarnation.component_table[1].instance
        assert owner.tally.component_lid == 1 * SUB_LID_BASE + 1

    def test_counter_restore_continues_sequence(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        process.create_component(TallyOwner)
        context = process.find_context(1)
        context.restore_subordinate_counter()
        assert context._next_sub_seq == 2

    def test_counter_restore_empty_context(self, context):
        context.restore_subordinate_counter()
        assert context._next_sub_seq == 1


class TestServingState:
    def test_begin_end_incoming(self, context):
        assert not context.busy
        context.begin_incoming(None)
        assert context.busy
        context.end_incoming()
        assert not context.busy
        assert context.incoming_calls_handled == 1

    def test_double_begin_rejected(self, context):
        context.begin_incoming(None)
        with pytest.raises(ConfigurationError, match="re-entrant"):
            context.begin_incoming(None)


class TestReplayState:
    def test_enter_leave_replay(self, context):
        reply = ReplyMessage(call_id=GlobalCallId("alpha", 1, 1, 0))
        context.enter_replay([reply])
        assert context.replaying
        assert len(context.replay_replies) == 1
        context.leave_replay()
        assert not context.replaying
        assert not context.replay_replies

    def test_components_listing_order(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        process.create_component(TallyOwner)
        context = process.find_context(1)
        members = context.components()
        assert members[0] is context.parent
        assert len(members) == 2
