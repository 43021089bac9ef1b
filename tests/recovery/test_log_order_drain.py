"""The eager drain's log-order redo.

``PendingRecovery.drain_all`` claims every pending component, reads
their chains merged in LSN order with one ``read_records`` call, and
hands each record to its context's buffer; then it finishes each context
(its last call, replayed final) in context-id order.  These tests pin
the two things that order could break — a final replay that goes live
into a context not finished yet, and what the redo reads.
"""

from repro import (
    CheckpointConfig,
    PersistentComponent,
    PhoenixRuntime,
    RuntimeConfig,
    persistent,
)
from repro.common.ids import parse_uri
from repro.core import ProcessState
from repro.faults.plane import FaultPlane, arm, installed
from repro.log import iter_frames, log_manager
from repro.recovery.incremental import PENDING, PendingRecovery
from tests.conftest import Counter


@persistent
class Chained(PersistentComponent):
    """Counts its calls and forwards each to its target, if linked."""

    def __init__(self):
        self.target = None
        self.count = 0

    def link(self, target):
        self.target = target

    def bump(self, n):
        self.count += 1
        if self.target is not None:
            return (self.count, self.target.bump(n))
        return self.count


@persistent
class Front(PersistentComponent):
    """A persistent client in another process: its retry after the
    crash carries the same call ID, so the reply is exactly-once."""

    def __init__(self, caller):
        self.caller = caller

    def bump(self, n):
        return self.caller.bump(n)


def _run_caller_below_callee(crash_point: str | None):
    runtime = PhoenixRuntime()
    runtime.external_client_machine = "alpha"
    process = runtime.spawn_process("p", machine="beta")
    # The caller is created first, so it has the lower context id and
    # context-id order finishes it first.
    caller = process.create_component(Chained)
    callee = process.create_component(Chained)
    caller.link(callee)
    front = runtime.spawn_process("front", machine="alpha").create_component(
        Front, args=(caller,)
    )
    replies = [front.bump(n) for n in range(3)]
    plane = FaultPlane(record=True)
    plane.bind(runtime)
    with installed(plane):
        if crash_point is not None:
            # After the caller forced its incoming call and before it
            # sends the call on: the callee never saw it.
            arm(runtime, "p", crash_point)
        replies.append(front.bump(9))
    replies.append(front.bump(10))
    counts = tuple(
        process.incarnation.component_table[parse_uri(proxy.uri)[2]].instance.count
        for proxy in (caller, callee)
    )
    return process, replies, counts, plane


class TestFinalReplayGoesLiveIntoAHigherContext:
    def test_state_and_replies_match_the_uncrashed_run(self):
        __, golden_replies, golden_counts, ___ = _run_caller_below_callee(
            None
        )
        process, replies, counts, plane = _run_caller_below_callee(
            "outgoing.before_send"
        )
        assert process.crash_count == 1
        assert process.state is ProcessState.RUNNING
        assert process.pending_recovery is None
        # Exactly once: the callee executed the lost call once, after
        # its own last call was replayed, and the retry was deduplicated.
        assert replies == golden_replies == [
            (1, 1), (2, 2), (3, 3), (4, 4), (5, 5)
        ]
        assert counts == golden_counts == (5, 5)
        # The caller's final replay went live into the callee, which was
        # finished inside it: the callee's replay nests in the caller's.
        finishes = [
            hit.site.split(":")[0].rsplit(".", 1)[-1]
            for hit in plane.journal
            if hit.site.startswith("recovery.lazy_replay.")
        ]
        assert finishes == ["before", "before", "after", "after"]


class TestLogOrderReads:
    def test_redo_decodes_each_chain_record_once_in_runs(self, monkeypatch):
        config = RuntimeConfig.optimized(
            checkpoint=CheckpointConfig(context_state_every_n_calls=7)
        )
        runtime = PhoenixRuntime(config=config)
        runtime.external_client_machine = "alpha"
        process = runtime.spawn_process("p", machine="beta")
        counters = [process.create_component(Counter) for __ in range(3)]
        for i in range(40):
            counters[i % 3].increment()
            if i % 5 == 0:
                counters[0].increment()  # uneven: chains of other shapes
        runtime.crash_process(process)

        seen = {}
        real_drain = PendingRecovery.drain_all
        real_decode = log_manager.decode_record

        def counting_drain(self):
            log = self.process.log
            seen["chains"] = [
                list(mark.chain)
                for mark in self.marks.values()
                if mark.status == PENDING
            ]
            before = log.stats.snapshot()
            decodes = []

            def decode(payload):
                decodes.append(1)
                return real_decode(payload)

            monkeypatch.setattr(log_manager, "decode_record", decode)
            try:
                real_drain(self)
            finally:
                monkeypatch.setattr(log_manager, "decode_record", real_decode)
            seen["decodes"] = len(decodes)
            seen["reads"] = log.stats.reads - before.reads
            seen["bytes_read"] = log.stats.bytes_read - before.bytes_read

        monkeypatch.setattr(PendingRecovery, "drain_all", counting_drain)
        runtime.ensure_recovered(process)
        assert [counter.value() for counter in counters] == [22, 13, 13]

        log = process.log
        frames = [
            (log.base_lsn + offset, end - offset)
            for offset, __, end in iter_frames(log.stable_bytes())
        ]
        position = {lsn: i for i, (lsn, __) in enumerate(frames)}
        length = dict(frames)
        chains = seen["chains"]
        lsns = sorted(lsn for chain in chains for lsn in chain)
        runs = 1 + sum(
            position[later] != position[earlier] + 1
            for earlier, later in zip(lsns, lsns[1:])
        )
        # three interleaved chains, broken into several runs by the
        # state records (and pre-state records) between them
        assert len(chains) >= 3
        assert max(chain[0] for chain in chains) < min(
            chain[-1] for chain in chains
        )
        assert 1 < runs < len(lsns)
        # one decode per chain record, the frames' own bytes, one stable
        # read per run of adjacent frames
        assert seen["decodes"] == len(lsns)
        assert seen["bytes_read"] == sum(length[lsn] for lsn in lsns)
        assert seen["reads"] <= runs
