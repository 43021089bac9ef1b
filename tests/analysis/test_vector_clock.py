"""Vector clocks and the causal trace invariants (TRC107/TRC108).

The helpers are exercised directly; the invariants are driven through
hand-built vector-clocked traces, mirroring how
``tests/analysis/test_trace_check.py`` drives TRC101-105.  End-to-end
coverage (real scheduler runs producing clean vc-annotated traces)
comes from the autouse ``check_runtime`` oracle on every concurrency
and sweep test, plus the explorer suite's seeded mutations.
"""

from __future__ import annotations

from bisect import bisect_right

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import vector_clock
from repro.analysis.trace import NO_LSN, ProtocolTrace, TraceEvent
from repro.analysis.trace_check import (
    _CausalIndex,
    _causal_violations,
    _race_violations,
)
from repro.common.messages import MessageKind

#: Every snapshot in this file is built from a live clock, so the tests
#: say what was observed, not how a snapshot is laid out.
_snap = vector_clock.snapshot


class TestVectorClockHelpers:
    def test_tick_and_component(self):
        clock = vector_clock.fresh_clock()
        assert vector_clock.component(vector_clock.snapshot(clock), 0) == 0
        vector_clock.tick(clock, 0)
        vector_clock.tick(clock, 0)
        vector_clock.tick(clock, 3)
        snap = vector_clock.snapshot(clock)
        assert [vector_clock.component(snap, s) for s in range(5)] == [
            2, 0, 0, 1, 0,
        ]
        assert vector_clock.component(snap, 7) == 0
        # Dense, and no longer than its last observed session.
        assert len(snap) == 4

    def test_merge_is_pointwise_max(self):
        dst = {0: 5, 1: 1}
        vector_clock.merge_into(dst, {1: 4, 2: 9})
        assert dst == {0: 5, 1: 4, 2: 9}

    def test_snapshot_is_sorted_and_stable(self):
        # Indexed by session whatever order the live clock grew in;
        # hashable and unaffected by later ticks of the clock it froze.
        clock = {2: 1, 0: 3}
        snap = vector_clock.snapshot(clock)
        assert snap == _snap({0: 3, 2: 1})
        vector_clock.tick(clock, 2)
        assert snap == _snap({0: 3, 2: 1}) != vector_clock.snapshot(clock)
        assert hash(snap) == hash(_snap({0: 3, 2: 1}))

    def test_happens_before_uses_writer_component(self):
        # f (session 0 at tick 2) happens-before e iff e's view of
        # session 0 has reached tick 2.
        f_vc = _snap({0: 2})
        assert vector_clock.happens_before(f_vc, 0, _snap({0: 2, 1: 5}))
        assert vector_clock.happens_before(f_vc, 0, _snap({0: 3}))
        assert not vector_clock.happens_before(f_vc, 0, _snap({0: 1, 1: 5}))
        assert not vector_clock.happens_before(f_vc, 0, _snap({1: 5}))

    def test_serial_events_are_totally_ordered(self):
        # vc/session None = main thread: ordered with everything.
        assert vector_clock.happens_before(None, None, _snap({0: 1}))
        assert vector_clock.happens_before(_snap({0: 1}), None, None)


def _commit(session, vc, *, stable, lsn, kind=MessageKind.REPLY_TO_INCOMING):
    """A committing send (persistent context, optimized algorithms)."""
    return TraceEvent(
        kind=kind,
        session=session,
        vc=vc,
        wrote_record=True,
        record_lsn=lsn,
        end_lsn=lsn + 1,
        stable_lsn=stable,
    )


class TestTRC107CausalPrefix:
    def test_volatile_causal_predecessor_is_reported(self):
        trace = ProtocolTrace()
        # Session 0 appends a record (LSN 10) that never reaches disk.
        trace.record(TraceEvent(
            kind=MessageKind.INCOMING_CALL, session=0, vc=_snap({0: 1}),
            wrote_record=True, record_lsn=10, end_lsn=11, stable_lsn=0,
        ))
        # Session 1 *saw* session 0's step (vc view 0:1) and commits
        # with only its own record stable.
        trace.record(_commit(
            1, _snap({0: 1, 1: 1}), stable=10, lsn=12,
        ))
        found = [
            v for v in _causal_violations(trace) if v.invariant == "TRC107"
        ]
        assert len(found) == 1
        assert found[0].lsn == 12
        assert "session 0" in found[0].message
        assert "causal prefix" in found[0].message

    def test_unrelated_sessions_unforced_append_passes(self):
        trace = ProtocolTrace()
        trace.record(TraceEvent(
            kind=MessageKind.INCOMING_CALL, session=0, vc=_snap({0: 1}),
            wrote_record=True, record_lsn=10, end_lsn=11, stable_lsn=0,
        ))
        # Session 1 never synchronized with session 0 (no 0-component):
        # session 0's volatile record is NOT in its causal prefix, so
        # the commit is fine by TRC107 (this is exactly the slack that
        # pipelined per-session forces would exploit).
        trace.record(_commit(1, _snap({1: 1}), stable=13, lsn=12))
        assert _causal_violations(trace) == []

    def test_stable_causal_predecessor_passes(self):
        trace = ProtocolTrace()
        trace.record(TraceEvent(
            kind=MessageKind.INCOMING_CALL, session=0, vc=_snap({0: 1}),
            wrote_record=True, record_lsn=10, end_lsn=11, stable_lsn=0,
        ))
        trace.record(_commit(1, _snap({0: 1, 1: 1}), stable=13, lsn=12))
        assert _causal_violations(trace) == []

    def test_serial_append_is_causally_prior_to_every_session(self):
        trace = ProtocolTrace()
        trace.record(TraceEvent(
            kind=MessageKind.INCOMING_CALL,
            wrote_record=True, record_lsn=10, end_lsn=11, stable_lsn=0,
        ))
        trace.record(_commit(1, _snap({1: 1}), stable=10, lsn=12))
        found = _causal_violations(trace)
        assert len(found) == 1 and found[0].invariant == "TRC107"

    def test_crash_mark_resets_the_causal_index(self):
        trace = ProtocolTrace()
        trace.record(TraceEvent(
            kind=MessageKind.INCOMING_CALL, session=0, vc=_snap({0: 1}),
            wrote_record=True, record_lsn=10, end_lsn=11, stable_lsn=0,
        ))
        # Crash with nothing stable: the volatile record is gone, so
        # the post-recovery commit has no volatile causal predecessor.
        trace.note_crash(0)
        trace.record(_commit(1, _snap({0: 1, 1: 1}), stable=3, lsn=2))
        assert _causal_violations(trace) == []

    def test_replaying_and_interrupted_commits_are_exempt(self):
        trace = ProtocolTrace()
        trace.record(TraceEvent(
            kind=MessageKind.INCOMING_CALL, session=0, vc=_snap({0: 1}),
            wrote_record=True, record_lsn=10, end_lsn=11, stable_lsn=0,
        ))
        exempt = TraceEvent(
            kind=MessageKind.REPLY_TO_INCOMING, session=1,
            vc=_snap({0: 1, 1: 1}), wrote_record=True, record_lsn=12,
            end_lsn=13, stable_lsn=10, replaying=True,
        )
        trace.record(exempt)
        assert _causal_violations(trace) == []


def _touch(session, vc, kind=MessageKind.INCOMING_CALL, context_id=7):
    return TraceEvent(
        kind=kind, context_id=context_id, session=session, vc=vc,
        end_lsn=1, stable_lsn=1,
    )


class TestTRC108StateRaces:
    def test_unordered_cross_session_touch_is_reported(self):
        trace = ProtocolTrace()
        trace.record(_touch(0, _snap({0: 1})))
        trace.record(_touch(1, _snap({1: 1})))
        found = _race_violations(trace)
        assert len(found) == 1
        assert found[0].invariant == "TRC108"
        assert "sessions 0 and 1" in found[0].message
        assert "context 7" in found[0].message

    def test_happens_before_ordered_touches_pass(self):
        trace = ProtocolTrace()
        trace.record(_touch(0, _snap({0: 1})))
        # Session 1 merged session 0's release clock before touching.
        trace.record(_touch(1, _snap({0: 1, 1: 1})))
        assert _race_violations(trace) == []

    def test_distinct_contexts_never_race(self):
        trace = ProtocolTrace()
        trace.record(_touch(0, _snap({0: 1}), context_id=7))
        trace.record(_touch(1, _snap({1: 1}), context_id=8))
        assert _race_violations(trace) == []

    def test_serial_access_resets_the_context(self):
        trace = ProtocolTrace()
        trace.record(_touch(0, _snap({0: 1})))
        # Main-thread access: totally ordered with both sessions.
        trace.record(_touch(None, None))
        trace.record(_touch(1, _snap({1: 1})))
        assert _race_violations(trace) == []

    def test_crash_mark_clears_tracking(self):
        trace = ProtocolTrace()
        trace.record(_touch(0, _snap({0: 1})))
        trace.note_crash(0)
        trace.record(_touch(1, _snap({1: 1})))
        assert _race_violations(trace) == []

    def test_replaying_touches_are_exempt(self):
        trace = ProtocolTrace()
        trace.record(_touch(0, _snap({0: 1})))
        exempt = TraceEvent(
            kind=MessageKind.REPLY_TO_INCOMING, context_id=7, session=1,
            vc=_snap({1: 1}), end_lsn=1, stable_lsn=1, replaying=True,
        )
        trace.record(exempt)
        assert _race_violations(trace) == []


# ----------------------------------------------------------------------
# the dense snapshot against the pair-tuple form it replaced
# ----------------------------------------------------------------------
def _ref_snapshot(clock):
    """The old snapshot: a sorted tuple of ``(session, ticks)`` pairs,
    sessions never observed simply not listed."""
    return tuple(sorted(clock.items()))


def _ref_component(vc, session):
    for who, count in vc:
        if who == session:
            return count
    return 0


def _ref_happens_before(f_vc, f_session, e_vc):
    if f_vc is None or e_vc is None or f_session is None:
        return True
    return _ref_component(f_vc, f_session) <= _ref_component(e_vc, f_session)


class _RefCausalIndex:
    """The old ``_CausalIndex`` over pair-tuple snapshots."""

    def __init__(self):
        self.serial_max = NO_LSN
        self.comps = {}
        self.maxes = {}

    def add(self, session, vc, lsn):
        if vc is None or session is None:
            self.serial_max = max(self.serial_max, lsn)
            return
        comps = self.comps.setdefault(session, [])
        maxes = self.maxes.setdefault(session, [])
        comps.append(_ref_component(vc, session))
        maxes.append(max(maxes[-1] if maxes else NO_LSN, lsn))

    def causal_max(self, vc):
        best = self.serial_max
        for session, view in vc:
            comps = self.comps.get(session)
            if not comps:
                continue
            idx = bisect_right(comps, view)
            if idx and self.maxes[session][idx - 1] > best:
                best = self.maxes[session][idx - 1]
        return best


_SESSIONS = st.integers(min_value=0, max_value=9)
#: Sparse live clocks as the scheduler grows them: never a zero entry.
_CLOCKS = st.dictionaries(_SESSIONS, st.integers(min_value=1, max_value=6))


@st.composite
def _append_histories(draw):
    """Appends as a run produces them: per session the own component
    never decreases, LSNs increase in trace order; a writer may not have
    ticked yet (own component absent), and some appends are serial."""
    own = {}
    appends = []
    for lsn in range(draw(st.integers(min_value=0, max_value=12))):
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            appends.append((None, None, lsn))
            continue
        session = draw(_SESSIONS)
        own[session] = own.get(session, 0) + draw(
            st.integers(min_value=0, max_value=2)
        )
        clock = draw(_CLOCKS)
        clock.pop(session, None)
        if own[session]:
            clock[session] = own[session]
        appends.append((session, clock, lsn))
    return appends


class TestDenseFormAgreesWithThePairForm:
    @given(clock=_CLOCKS, session=st.integers(min_value=0, max_value=12))
    def test_component(self, clock, session):
        assert vector_clock.component(_snap(clock), session) == (
            _ref_component(_ref_snapshot(clock), session)
        )

    @given(
        f_clock=st.none() | _CLOCKS,
        f_session=st.none() | _SESSIONS,
        e_clock=st.none() | _CLOCKS,
    )
    def test_happens_before(self, f_clock, f_session, e_clock):
        def both(freeze):
            return (
                None if f_clock is None else freeze(f_clock),
                f_session,
                None if e_clock is None else freeze(e_clock),
            )

        assert vector_clock.happens_before(*both(_snap)) == (
            _ref_happens_before(*both(_ref_snapshot))
        )

    @given(appends=_append_histories(), view=_CLOCKS)
    def test_causal_max(self, appends, view):
        index, ref = _CausalIndex(), _RefCausalIndex()
        for session, clock, lsn in appends:
            index.add(TraceEvent(
                kind=MessageKind.INCOMING_CALL, session=session,
                vc=None if clock is None else _snap(clock),
                wrote_record=True, record_lsn=lsn,
            ))
            ref.add(
                session,
                None if clock is None else _ref_snapshot(clock),
                lsn,
            )
        assert index.causal_max(_snap(view)) == ref.causal_max(
            _ref_snapshot(view)
        )


class TestSpawnedWorkerBeforeItsFirstTick:
    """A ``spawn()``ed drain worker inherits its spawner's clock and has
    no component of its own until its first yield.  The pair form left
    that component *absent*; the dense form reads it as zero.  One rule
    for both: zero is "nothing observed" — ``happens_before`` orders the
    unticked writer before everything (0 <= 0), ``causal_max`` skips
    zero views — and the verdicts are the pair form's."""

    WORKER = 2
    #: Spawned by session 0 at tick 3; traces before yielding at all.
    WORKER_CLOCK = {0: 3}

    def _worker_append(self, freeze):
        return dict(
            session=self.WORKER, vc=freeze(self.WORKER_CLOCK),
            wrote_record=True, record_lsn=10, end_lsn=11, stable_lsn=0,
        )

    def test_trc107_skips_the_unticked_workers_volatile_record(self):
        for observer in ({1: 1}, {0: 3, 1: 1}, {0: 9, 1: 4}):
            trace = ProtocolTrace()
            trace.record(TraceEvent(
                kind=MessageKind.INCOMING_CALL, **self._worker_append(_snap)
            ))
            trace.record(_commit(1, _snap(observer), stable=10, lsn=12))
            assert _causal_violations(trace) == []
            # ...which is what the pair form's index concluded.
            ref = _RefCausalIndex()
            ref.add(self.WORKER, _ref_snapshot(self.WORKER_CLOCK), 10)
            assert ref.causal_max(_ref_snapshot(observer)) == NO_LSN

    def test_trc107_sees_the_worker_once_it_has_ticked(self):
        trace = ProtocolTrace()
        ticked = {**self.WORKER_CLOCK, self.WORKER: 1}
        trace.record(TraceEvent(
            kind=MessageKind.INCOMING_CALL, session=self.WORKER,
            vc=_snap(ticked), wrote_record=True, record_lsn=10,
            end_lsn=11, stable_lsn=0,
        ))
        trace.record(_commit(
            1, _snap({1: 1, self.WORKER: 1}), stable=10, lsn=12
        ))
        [found] = _causal_violations(trace)
        assert found.invariant == "TRC107"
        assert f"session {self.WORKER}" in found.message

    def test_trc108_orders_the_unticked_worker_before_any_later_touch(self):
        for observer in ({1: 1}, {0: 3, 1: 1}):
            trace = ProtocolTrace()
            trace.record(_touch(self.WORKER, _snap(self.WORKER_CLOCK)))
            trace.record(_touch(1, _snap(observer)))
            assert _race_violations(trace) == []
            assert _ref_happens_before(
                _ref_snapshot(self.WORKER_CLOCK), self.WORKER,
                _ref_snapshot(observer),
            )

    def test_trc108_still_reports_the_reverse_pair(self):
        # The earlier toucher *has* ticked; the unticked worker never
        # heard of it.
        trace = ProtocolTrace()
        trace.record(_touch(1, _snap({1: 1})))
        trace.record(_touch(self.WORKER, _snap(self.WORKER_CLOCK)))
        [found] = _race_violations(trace)
        assert found.invariant == "TRC108"
