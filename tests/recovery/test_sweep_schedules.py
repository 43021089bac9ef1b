"""Named crash-point schedules, pinned as tier-1 regression tests.

Each test re-runs one schedule the crash-point sweep flushed a real bug
out of, via the same ``CrashPoint.parse`` -> ``run_point`` round trip a
developer uses to reproduce a sweep failure from its report line (see
docs/internals.md section 9).  The full sweep covers hundreds of points
nightly; these are the ones that found recovery-edge bugs, kept on the
per-push path so the specific regressions cannot come back silently.

The oracle per point: the armed specs fired, the workload completed,
TRC101-109 hold on every log, replies and component state are
byte-identical to a fault-free golden run, and crashing everything and
recovering *again* reproduces that same state.
"""

import pytest

from repro.faults.plan import CrashPoint
from repro.faults.sweep import run_point
from repro.faults.workloads import PHOENIX_LEGS, run


@pytest.fixture(scope="module")
def golden():
    """Fault-free outcomes, one per workload (shared: they are what
    every schedule is compared against)."""
    return {
        name: run(*PHOENIX_LEGS[name]).raise_error()
        for name in (
            "bookstore",
            "orderflow",
            "bookstore-concurrent",
            "bookstore-concurrent-pipelined",
            "bookstore-sharded",
        )
    }


def run_schedule(point_id: str, golden) -> None:
    point = CrashPoint.parse(point_id)
    result = run_point(point, golden[point.workload])
    assert result.ok, "\n".join([point.point_id, *result.failures])


class TestNamedSchedules:
    def test_drain_must_not_regress_the_last_call_table(self, golden):
        """Server crash after the force that covered its last-served
        call: recovery's drain then replays another context's buffered
        OLDER call from the same caller.  Rebuilding that call's state
        must not overwrite the newer last-call entry — doing so made the
        caller's retry miss duplicate detection and double-execute
        (basket count 3 instead of 2)."""
        run_schedule("bookstore:log.force.after:beta-bookstore-app@4", golden)

    def test_multicall_skip_is_per_server_process(self, golden):
        """Desk crash between its two backend calls: the Section 3.5
        skip had keyed 'repeat server' by component URI, so the second
        call into the SAME backend process skipped its force while the
        first call's reply lived only in the last-call slot the second
        call evicts.  Replay then re-sent the older call and the backend
        raised 'incoming call is older than the last call'."""
        run_schedule(
            "orderflow:log.force.before:alpha-orderflow-desk@2", golden
        )

    def test_crash_mark_tracks_the_repaired_tail(self, golden):
        """Torn driver flush: the crash mark taken at crash time used
        the raw stable size, which includes the torn partial bytes.
        Repair truncates below that mark, so a record appended after
        recovery reused an LSN the trace still believed stable — TRC104
        then saw two decisions claim one record.  The mark must be
        re-taken at the repaired boundary."""
        run_schedule("orderflow:log.flush:alpha-sweep-driver@6+865B", golden)


class TestSecondCrashDuringRecovery:
    """Satellite: a second crash at every recovery pass boundary.

    The replies pass 1 cached (reply records, state-record snapshots)
    must be invalidated and rebuilt by the SECOND recovery, not served
    stale — the oracle's recover-twice byte-identity catches any leak.
    """

    @pytest.mark.parametrize(
        "boundary", ["pass1", "restored", "pass2", "drained"]
    )
    def test_force_crash_then_crash_in_recovery(self, golden, boundary):
        run_schedule(
            "bookstore:log.force.before:alpha-sweep-driver@13"
            f"/recovery.{boundary}:sweep-driver@1",
            golden,
        )

    def test_torn_tail_then_crash_in_pass2(self, golden):
        """The nastiest composite: the first crash leaves a torn tail,
        and the second crash interrupts pass 2 of its repair — the
        third recovery must re-repair and still replay to the same
        bytes."""
        run_schedule(
            "orderflow:log.flush:alpha-orderflow-desk@11+9B"
            "/recovery.pass2:orderflow-desk@1",
            golden,
        )


class TestConcurrentInterleavingSchedules:
    """Crash points firing mid-interleaving in the concurrent bookstore
    workload (four buyer sessions under the deterministic scheduler,
    group commit on).  Same oracle as every other schedule, with the
    trace checker's session-aware TRC101/TRC106 in the loop.
    """

    def test_server_crash_mid_multicall_under_interleaving(self, golden):
        """App-process force while the grabber's multi-call fan-out is
        in flight and other sessions have unforced appends on the same
        log: the Section 3.5 skip must be justified by the crashed
        call's OWN forced watermark, never by a neighbour session's
        unforced tail (satellite fix; see TestMulticallWatermark for the
        unit pin)."""
        run_schedule(
            "bookstore-concurrent:log.force.before:beta-bookstore-app@2",
            golden,
        )

    def test_driver_crash_wipes_other_sessions_buffered_records(
        self, golden
    ):
        """Driver-process force with all four buyers' ScriptRunner
        records interleaved in its volatile buffer: the ghost-session
        unwind must not trace witnesses for wiped records (their LSNs
        are reused by replay)."""
        run_schedule(
            "bookstore-concurrent:log.force.before:alpha-sweep-driver@21",
            golden,
        )

    def test_crash_in_the_external_reply_window(self, golden):
        """Algorithm 3's post-force, pre-reply window with other
        sessions mid-call: the recovered driver must serve the reply
        from its log and every session's retry must dedup."""
        run_schedule(
            "bookstore-concurrent:alg3.pre_reply:sweep-driver@17", golden
        )

    def test_torn_driver_flush_mid_interleaving(self, golden):
        """A torn stable write under concurrent sessions: repair
        truncates the shared tail, and every session parked beyond the
        repaired boundary must replay to the same bytes."""
        run_schedule(
            "bookstore-concurrent:log.flush:alpha-sweep-driver@29+9B",
            golden,
        )


class TestPipelinedCrashSchedules:
    """Crash points firing under ``pipelined_commit`` (per-session
    durability watermarks, causally-gated sends; internals.md section
    14).  The watermarks are volatile bookkeeping: every one of these
    schedules crashes a process whose sessions hold non-trivial
    watermarks, and the oracle's recover-twice byte-identity fails if a
    watermark survives the crash (a send would be released against
    durability that no longer exists)."""

    def test_server_crash_inside_a_gating_window(self, golden):
        """App-process force while other sessions' unforced appends sit
        above a gated session's causal prefix: recovery must rebuild
        watermarks from fresh appends, never from the pre-crash map."""
        run_schedule(
            "bookstore-concurrent-pipelined:"
            "log.force.before:beta-bookstore-app@2",
            golden,
        )

    def test_driver_crash_wipes_watermarked_buffered_records(
        self, golden
    ):
        """Driver-process force with all four buyers' records
        interleaved in its volatile buffer: the wipe reuses LSNs, so a
        surviving watermark above the crash-time stable boundary would
        gate a send against bytes that now belong to different
        records."""
        run_schedule(
            "bookstore-concurrent-pipelined:"
            "log.force.before:alpha-sweep-driver@21",
            golden,
        )

    def test_crash_in_the_external_reply_window(self, golden):
        """Algorithm 3's post-force, pre-reply window: the causal
        commit point equals the global one here (the force follows the
        session's own append), so the pipelined run must mask the crash
        exactly like the unrelaxed workload."""
        run_schedule(
            "bookstore-concurrent-pipelined:"
            "alg3.pre_reply:sweep-driver@17",
            golden,
        )

    def test_torn_flush_clamps_watermarks_below_stable(self, golden):
        """A torn stable write: repair truncates BELOW the crash-time
        stable LSN, and the new incarnation reuses the torn LSNs.  No
        session's pre-crash watermark may gate a send there: they are
        keyed by the dead incarnation's log, so traffic resumes with
        watermarks rebuilt from fresh appends only."""
        run_schedule(
            "bookstore-concurrent-pipelined:"
            "log.flush:alpha-sweep-driver@29+9B",
            golden,
        )

    @pytest.mark.parametrize("boundary", ["restored", "pass2"])
    def test_second_crash_during_pipelined_recovery(
        self, golden, boundary
    ):
        """Crash-during-recovery composite: the second crash orphans
        the watermarks the first recovery's replay traffic rebuilt, and
        the third pass still converges byte-identically
        (recover-twice idempotency under the relaxed ordering)."""
        run_schedule(
            "bookstore-concurrent-pipelined:"
            "log.force.before:alpha-sweep-driver@18"
            f"/recovery.{boundary}:sweep-driver@1",
            golden,
        )


class TestShardedCrashSchedules:
    """Crash points under ``sharded_logging`` (one log stream per shard
    of a synthetic three-way bookstore split; internals.md section 16).
    The oracle's recover-twice byte-identity runs per stream: every
    shard's log must replay to the same bytes independently."""

    FIRST = "bookstore-sharded:log.force.before:beta-bookstore-app@seller-tier@11"

    def test_crash_on_a_shard_streams_force(self, golden):
        """Server crash at a seller-tier stream force while the other
        shards' streams hold unforced appends: recovery must scan every
        stream and route each context's replay to its owning stream."""
        run_schedule(self.FIRST, golden)

    def test_crash_on_the_other_shards_force(self, golden):
        run_schedule(
            "bookstore-sharded:log.force.before:beta-bookstore-app"
            "@store-tier@3",
            golden,
        )

    def test_torn_tail_on_a_shard_stream(self, golden):
        """A torn flush on one shard's stream: repair truncates that
        stream alone, and the other shards' tails survive untouched
        (the per-stream crash mark must use the repaired boundary of
        its own stream's LSN space)."""
        run_schedule(
            "bookstore-sharded:log.flush:beta-bookstore-app"
            "@seller-tier@7+9B",
            golden,
        )

    def test_second_crash_mid_shard_replay(self, golden):
        """Crash-during-recovery composite: the second crash fires
        while a shard drain worker is replaying its stream's
        components.  Workers of the dead incarnation must ghost (stale
        CrashSignal on resume) instead of replaying against the retired
        watermark table — the third recovery still converges
        byte-identically."""
        run_schedule(
            f"{self.FIRST}/recovery.drain_worker:bookstore-app@2", golden
        )

    def test_second_crash_between_shard_drains(self, golden):
        """Composite at the boundary BETWEEN two shard drains: one
        shard fully replayed, the next not started.  The completed
        shard's replay effects are on its own stream; the second
        recovery must neither double-apply them nor lose the pending
        shard."""
        run_schedule(
            f"{self.FIRST}/recovery.shard.drained:"
            "beta-bookstore-app@store-tier@1",
            golden,
        )

    def test_second_crash_at_pass2(self, golden):
        run_schedule(f"{self.FIRST}/recovery.pass2:bookstore-app@1", golden)


class TestShardedDeterminism:
    """Two same-seed sharded runs must produce byte-identical per-stream
    logs, traces and clocks — the sweep's schedule replay (and the
    ``make concurrency`` gate) depend on it."""

    def test_same_seed_fingerprints_match(self, golden):
        again = run(*PHOENIX_LEGS["bookstore-sharded"]).raise_error()
        base = golden["bookstore-sharded"]
        assert set(again.determinism) == set(base.determinism)
        for key in sorted(base.determinism):
            assert again.determinism[key] == base.determinism[key], key
        assert again.replies == base.replies
        assert again.state == base.state


class TestPipelinedScheduleIds:
    """Replayable DPOR SCHEDULE_IDs over the ``ledger-pipelined``
    explore workload, pinned from the exhaustive n=2 exploration
    (schedule space and crash composites both ran clean; these IDs keep
    representative schedules — maximal root interleaving and each
    derived crash point — replayable byte-identically on the per-push
    path)."""

    PINNED = [
        # Maximal interleaving at the root of the schedule tree.
        "phxsched|v1|ledger-pipelined|n2|"
        "1100111111110000000000000000000000000000001111111111111111"
        "11111",
        "phxsched|v1|ledger-pipelined|n2|10101",
        # Crash composites: the shared log's first force and each
        # private log's force, armed mid-interleaving.
        "phxsched|v1|ledger-pipelined|n2"
        "|crash=log.force.before:beta-shared@1"
        "|101011100000000000000000000000000000001111111111111111111"
        "11111111111",
        "phxsched|v1|ledger-pipelined|n2"
        "|crash=log.force.before:beta-private-0@3"
        "|101011111111000000000000000000000000000000000011111111111"
        "1111111111",
        "phxsched|v1|ledger-pipelined|n2"
        "|crash=log.force.before:beta-private-1@1"
        "|101011111111000000000000000000000000000000111111111111111"
        "1111111111",
    ]

    @pytest.mark.parametrize("schedule_id", PINNED)
    def test_pinned_schedule_replays_clean(self, schedule_id):
        from repro.concurrency.explore import verify_schedule

        run, diverged = verify_schedule(schedule_id)
        assert diverged == [], f"{schedule_id} diverged in {diverged}"
        assert run.error is None, run.error
        assert run.violations == [], run.violations
        # Both sessions completed their three calls through any
        # injected crash.
        assert run.replies is not None
        assert sorted(len(r) for r in run.replies) == [3, 3]


class TestCheckpointTruncationBoundary:
    """Satellite: crash after the checkpoint published but BEFORE the
    log truncated.  Recovery then sees both the checkpoint and the
    context-state records it superseded; applying a state record on top
    of the newer checkpoint state (or vice versa) double-applies."""

    @pytest.mark.parametrize(
        "point_id",
        [
            "bookstore:checkpoint.publish.before_truncate:bookstore-app@1",
            "bookstore:checkpoint.publish.before_truncate:sweep-driver@2",
            "orderflow:checkpoint.publish.before_truncate:orderflow-backend@1",
        ],
    )
    def test_no_double_apply_before_truncation(self, golden, point_id):
        run_schedule(point_id, golden)
