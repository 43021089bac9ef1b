"""Deterministic cooperative scheduler: determinism, interleaving,
failure semantics (docs/internals.md section 11)."""

import json
import sys
import threading
from pathlib import Path

import pytest

from repro import PhoenixRuntime, RuntimeConfig
from repro.analysis import vector_clock
from repro.analysis.trace_check import record_signature
from repro.concurrency import DeterministicScheduler
from repro.concurrency.bench import clock_bytes_per_traced_event
from repro.concurrency.explore import EXPLORE_WORKLOADS, derive_crash_specs
from repro.concurrency.policies import (
    ControlledPolicy,
    ReplayPolicy,
    ScheduleDivergenceError,
    SchedulePolicy,
    ScheduleStep,
    SeededRandomPolicy,
)
from repro.concurrency.scheduler import SerialScheduler, Session
from repro.errors import InvariantViolationError
from repro.faults.plane import CrashSpec
from repro.faults.workloads import PHOENIX_LEGS, run

from ..conftest import Counter


def _deploy(n_sessions: int, **config_overrides):
    """n Counter components on one server process, driven by external
    client sessions (Algorithm 3 on a shared log)."""
    runtime = PhoenixRuntime(
        config=RuntimeConfig.optimized(**config_overrides)
    )
    runtime.external_client_machine = "alpha"
    process = runtime.spawn_process("server", machine="beta")
    counters = [
        process.create_component(Counter) for __ in range(n_sessions)
    ]
    return runtime, process, counters


def _run(seed: int, n_sessions: int = 3, calls: int = 4):
    runtime, process, counters = _deploy(n_sessions)

    def make_session(index):
        def session():
            out = []
            for __ in range(calls):
                out.append(counters[index].increment())
            return out

        return session

    scheduler = DeterministicScheduler(runtime, seed=seed)
    results = scheduler.run([make_session(i) for i in range(n_sessions)])
    return runtime, process, results


class TestDeterminism:
    def test_same_seed_reproduces_every_artifact(self):
        a_runtime, a_process, a_results = _run(seed=11)
        b_runtime, b_process, b_results = _run(seed=11)
        assert a_results == b_results
        assert record_signature(a_process.log) == record_signature(
            b_process.log
        )
        assert repr(a_process.streams[0].trace.entries) == repr(
            b_process.streams[0].trace.entries
        )
        assert a_runtime.clock.now == b_runtime.clock.now

    def test_scheduler_detaches_after_run(self):
        runtime, process, counters = _deploy(2)
        serial = runtime.scheduler
        scheduler = DeterministicScheduler(runtime, seed=1)
        assert runtime.scheduler is serial  # attached for a run only
        seen = []

        def session():
            seen.append(runtime.scheduler)
            return counters[0].increment()

        assert scheduler.run([session]) == [1]
        assert seen == [scheduler]
        assert runtime.scheduler is serial

        # A run whose session failed restores it too (the finally path).
        def bad():
            counters[1].increment()
            raise ValueError("session exploded")

        with pytest.raises(ValueError, match="session exploded"):
            scheduler.run([bad])
        assert runtime.scheduler is serial
        # The runtime is still usable serially afterwards.
        counter = process.create_component(Counter)
        assert counter.increment() == 1


class TestSerialScheduler:
    def test_a_fresh_runtime_holds_the_serial_scheduler(self):
        runtime = PhoenixRuntime()
        assert isinstance(runtime.scheduler, SerialScheduler)
        assert not isinstance(runtime.scheduler, DeterministicScheduler)
        assert runtime.scheduler.current_session_id() is None
        assert runtime.scheduler.is_recovery_driver(None)

    def test_block_until_returns_on_a_true_predicate(self):
        SerialScheduler().block_until(lambda: True, tag="drain-all:p")

    def test_block_until_raises_naming_the_tag_on_a_false_one(self):
        with pytest.raises(
            InvariantViolationError, match="waiting on lazy-recovery:p#3"
        ):
            SerialScheduler().block_until(
                lambda: False, tag="lazy-recovery:p#3"
            )


class TestInterleaving:
    def test_sessions_overlap_on_the_server_trace(self):
        """The point of the exercise: the server process trace carries
        decisions from several sessions interleaved, not N serial
        blocks."""
        __, process, __ = _run(seed=3, n_sessions=3)
        sessions = [
            event.session
            for event in process.streams[0].trace.events()
            if event.session is not None
        ]
        assert set(sessions) == {0, 1, 2}
        # At least one session's decisions are split around another's.
        spans = {
            s: (sessions.index(s), len(sessions) - 1 - sessions[::-1].index(s))
            for s in set(sessions)
        }
        overlapping = [
            (a, b)
            for a in spans
            for b in spans
            if a != b and spans[a][0] < spans[b][0] < spans[a][1]
        ]
        assert overlapping, f"sessions ran serially: {spans}"

    def test_single_session_run_matches_serial_execution(self):
        """With one session and no group commit the scheduler is pure
        overhead: byte-identical logs, trace, clock, and replies."""
        s_runtime, s_process, s_counters = _deploy(1)
        serial = [s_counters[0].increment() for __ in range(4)]

        c_runtime, c_process, c_results = _run(seed=9, n_sessions=1)
        assert c_results == [serial]
        assert record_signature(c_process.log) == record_signature(
            s_process.log
        )
        # The trace is identical up to the session annotation (None
        # serially, 0 under the scheduler) and its vector clock.
        scrubbed = [
            event._replace(session=None, vc=None)
            for event in c_process.streams[0].trace.events()
        ]
        assert repr(scrubbed) == repr(s_process.streams[0].trace.entries)
        assert c_runtime.clock.now == s_runtime.clock.now


class TestFailureSemantics:
    def test_session_error_propagates_and_aborts_the_run(self):
        runtime, process, counters = _deploy(2)

        def bad():
            counters[0].increment()
            raise ValueError("session exploded")

        def endless():
            while True:
                counters[1].increment()

        scheduler = DeterministicScheduler(runtime, seed=2)
        with pytest.raises(ValueError, match="session exploded"):
            scheduler.run([bad, endless])
        assert not scheduler.active

    def test_all_sessions_blocked_forever_is_a_deadlock(self):
        runtime, __, counters = _deploy(1)
        scheduler = DeterministicScheduler(runtime, seed=2)

        def stuck():
            counters[0].increment()
            scheduler.block_until(lambda: False, tag="never")

        # The message is pinned: it names every blocked session and the
        # tag each one is parked at, which is the whole debugging story.
        expected = (
            "scheduler deadlock: all sessions blocked: "
            "Session(#0, blocked at never)"
        )
        with pytest.raises(InvariantViolationError) as excinfo:
            scheduler.run([stuck])
        assert str(excinfo.value) == expected

    def test_deadlock_message_lists_every_blocked_session(self):
        runtime, __, counters = _deploy(2)
        scheduler = DeterministicScheduler(runtime, seed=2)

        def stuck(index, tag):
            def session():
                counters[index].increment()
                scheduler.block_until(lambda: False, tag=tag)

            return session

        with pytest.raises(InvariantViolationError) as excinfo:
            scheduler.run([stuck(0, "claim"), stuck(1, "drain")])
        message = str(excinfo.value)
        assert "Session(#0, blocked at claim)" in message
        assert "Session(#1, blocked at drain)" in message

    def test_yield_point_is_a_noop_off_session(self):
        runtime, __, counters = _deploy(1)
        DeterministicScheduler(runtime, seed=0)
        # Main thread, scheduler attached but not running: serial path.
        runtime.sched_yield("log.append:server")
        assert counters[0].increment() == 1

    def test_typoed_yield_tag_is_a_hard_error(self):
        runtime, __, counters = _deploy(1)
        scheduler = DeterministicScheduler(runtime, seed=0)

        def session():
            counters[0].increment()
            runtime.sched_yield("log.apend:server")  # sic

        with pytest.raises(
            InvariantViolationError, match="unregistered yield-point tag"
        ):
            scheduler.run([session])


class TestSpawn:
    def test_spawned_worker_joins_the_run_mid_flight(self):
        """A session spawns a system worker; the worker's effects land,
        the run stays alive until it finishes, and ``run()`` returns
        only the primary sessions' results."""
        runtime, process, counters = _deploy(2)
        worker_replies = []

        def worker():
            # More steps than the spawner has left: the run must stay
            # alive for the worker alone.
            for __ in range(4):
                worker_replies.append(counters[1].increment())
            return "worker-result"

        scheduler = DeterministicScheduler(runtime, seed=7)
        spawned = []

        def spawner():
            first = counters[0].increment()
            spawned.append(scheduler.spawn(worker, name="drain"))
            return [first]

        def bystander():
            return [counters[0].increment()]

        results = scheduler.run([spawner, bystander])
        # Only the two primary sessions' results come back (which of
        # them incremented counter 0 first is the seed's choice).
        assert sorted(results) == [[1], [2]]
        # ...but the worker ran to completion before run() returned.
        assert worker_replies == [1, 2, 3, 4]
        [worker_session] = spawned
        assert worker_session.system
        assert worker_session.state == "done"
        assert worker_session.result == "worker-result"

    def test_spawn_outside_an_active_run_is_an_error(self):
        runtime, __, __ = _deploy(1)
        scheduler = DeterministicScheduler(runtime, seed=0)
        with pytest.raises(
            InvariantViolationError, match="outside an active run"
        ):
            scheduler.spawn(lambda: None)

    def test_spawned_worker_inherits_the_spawner_clock(self):
        """The child is causally after its spawner: its first traced
        events carry the parent's vector-clock components."""
        runtime, process, counters = _deploy(2)
        scheduler = DeterministicScheduler(runtime, seed=7)

        def worker():
            counters[1].increment()

        def spawner():
            counters[0].increment()
            scheduler.spawn(worker)

        scheduler.run([spawner])
        worker_events = [
            event
            for event in process.streams[0].trace.events()
            if event.session == 1
        ]
        assert worker_events, "worker must reach the server trace"
        first_vc = worker_events[0].vc
        assert vector_clock.component(first_vc, 0) > 0, first_vc

    def test_spawned_worker_traces_a_zero_own_component_before_its_first_tick(
        self,
    ):
        """Until its first yield a spawned worker has never ticked: the
        snapshot it would trace carries the spawner's components and
        zero for itself (the dense form's "nothing observed")."""
        runtime, __, counters = _deploy(1)
        scheduler = DeterministicScheduler(runtime, seed=7)
        seen = {}

        def worker():
            seen["worker"] = scheduler.current_vc()

        def spawner():
            counters[0].increment()
            seen["index"] = scheduler.spawn(worker).index
            seen["spawner"] = scheduler.current_vc()

        scheduler.run([spawner])
        assert seen["worker"] == seen["spawner"]
        assert vector_clock.component(seen["worker"], 0) > 0
        assert vector_clock.component(seen["worker"], seen["index"]) == 0


@pytest.fixture
def lingering_threads(monkeypatch):
    """Make ``scheduler``'s session threads outlive their sessions (and
    a shortened join timeout) until the test is over."""
    release = threading.Event()
    held = []

    def hold(scheduler):
        body = scheduler._session_body

        def lingering_body(session):
            body(session)
            release.wait(30)

        monkeypatch.setattr(scheduler, "_session_body", lingering_body)
        held.append(scheduler)

    monkeypatch.setattr("repro.concurrency.scheduler._JOIN_TIMEOUT_S", 0.05)
    yield hold
    release.set()
    for scheduler in held:
        for session in scheduler.sessions:
            session.thread.join(30)
            assert not session.thread.is_alive()


class TestTeardown:
    def test_leaked_session_thread_fails_the_run(self, lingering_threads):
        """A session thread still alive after the join timeout would
        survive into the next run() with ``_by_thread`` cleared under
        it: run() must fail loudly, not return."""
        runtime, __, counters = _deploy(1)
        scheduler = DeterministicScheduler(runtime, seed=0)
        lingering_threads(scheduler)
        with pytest.raises(
            InvariantViolationError,
            match=r"Session\(#0, done\).*still alive",
        ):
            scheduler.run([counters[0].increment])
        assert not scheduler.active

    def test_a_session_error_outranks_the_leak_report(
        self, lingering_threads
    ):
        runtime, __, counters = _deploy(1)
        scheduler = DeterministicScheduler(runtime, seed=0)
        lingering_threads(scheduler)

        def bad():
            counters[0].increment()
            raise ValueError("session exploded")

        with pytest.raises(ValueError, match="session exploded"):
            scheduler.run([bad])


class TestTurnstile:
    def test_exactly_one_thread_runs_under_a_short_switch_interval(self):
        """Stress the two-lock handoff: 32 session threads on a 2 us
        switch interval, each doing preemptible Python work between
        yields.  If a release ever let two threads through, two would be
        inside at once; if a handoff were ever swallowed, the run would
        never finish."""
        runtime, __, __ = _deploy(1)
        scheduler = DeterministicScheduler(runtime, seed=13)
        inside = []
        overlaps = []

        def session():
            for __ in range(200):
                inside.append(None)
                for __ in range(50):
                    if len(inside) != 1:
                        overlaps.append(len(inside))
                inside.pop()
                runtime.sched_yield("log.append:server")
            return True

        results = []
        runner = threading.Thread(
            target=lambda: results.extend(scheduler.run([session] * 32)),
            daemon=True,
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(2e-6)
        try:
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive(), "turnstile wedged"
        assert results == [True] * 32
        assert overlaps == []


# ----------------------------------------------------------------------
# decisions on session threads: errors, handoffs, step records
# ----------------------------------------------------------------------
def _raising_thread(monkeypatch, scheduler) -> list:
    """Record the name of every thread whose ``_decide`` raised."""
    decide = scheduler._decide
    raised_on = []

    def recording(ended):
        try:
            return decide(ended)
        except BaseException:
            raised_on.append(threading.current_thread().name)
            raise

    monkeypatch.setattr(scheduler, "_decide", recording)
    return raised_on


def _waiter_and_opener(runtime, scheduler) -> list:
    """Session #0 waits for a gate that session #1 opens after one
    yield: run #0 first and, until #1 runs, #0 is BLOCKED."""
    gate = []

    def waiter():
        scheduler.block_until(lambda: bool(gate), tag="gate")

    def opener():
        runtime.sched_yield("log.append:server")
        gate.append(True)

    return [waiter, opener]


def _assert_torn_down(runtime, scheduler, serial) -> None:
    assert runtime.scheduler is serial
    assert isinstance(runtime.scheduler, SerialScheduler)
    assert not scheduler.active
    assert not any(s.thread.is_alive() for s in scheduler.sessions)


class TestErrorsDecidedOnASessionThread:
    """Every decision after a run's first is taken by the session whose
    step just ended; an error it raises there must reach ``run()``'s
    caller unchanged, with the run torn down as before."""

    def test_replay_divergence_at_a_later_step(self, monkeypatch):
        runtime, __, __ = _deploy(1)
        serial = runtime.scheduler
        # Step 0 runs #0 into a wait; step 1's recorded choice is #0
        # again, which is BLOCKED by then.
        scheduler = DeterministicScheduler(
            runtime, policy=ReplayPolicy([0, 0])
        )
        raised_on = _raising_thread(monkeypatch, scheduler)
        with pytest.raises(ScheduleDivergenceError) as excinfo:
            scheduler.run(_waiter_and_opener(runtime, scheduler))
        assert str(excinfo.value) == (
            "replay step 1: session #0 is not READY (ready: [1]) — the "
            "schedule was recorded against a different program"
        )
        assert raised_on == ["phx-session-0"]
        _assert_torn_down(runtime, scheduler, serial)

    def test_deadlock_found_after_the_last_session_parks(self, monkeypatch):
        runtime, __, counters = _deploy(2)
        serial = runtime.scheduler
        scheduler = DeterministicScheduler(
            runtime, policy=ReplayPolicy([0, 1])
        )
        raised_on = _raising_thread(monkeypatch, scheduler)

        def stuck(index, tag):
            def session():
                counters[index].increment()
                scheduler.block_until(lambda: False, tag=tag)

            return session

        with pytest.raises(InvariantViolationError) as excinfo:
            scheduler.run([stuck(0, "claim"), stuck(1, "drain")])
        assert str(excinfo.value) == (
            "scheduler deadlock: all sessions blocked: "
            "Session(#0, blocked at claim), Session(#1, blocked at drain)"
        )
        assert raised_on == ["phx-session-1"]
        _assert_torn_down(runtime, scheduler, serial)


class _Picking(SchedulePolicy):
    """Picks whatever ``pick(scheduler)`` names, READY or not."""

    def __init__(self, pick):
        self.pick = pick

    def choose(self, ready, scheduler):
        return self.pick(scheduler)


class TestPolicyMustChooseAReadySession:
    def test_a_blocked_session_is_refused(self, monkeypatch):
        runtime, __, __ = _deploy(1)
        serial = runtime.scheduler
        scheduler = DeterministicScheduler(
            runtime, policy=_Picking(lambda sched: sched.sessions[0])
        )
        raised_on = _raising_thread(monkeypatch, scheduler)
        with pytest.raises(InvariantViolationError) as excinfo:
            scheduler.run(_waiter_and_opener(runtime, scheduler))
        assert str(excinfo.value) == (
            "schedule policy chose non-ready session "
            "Session(#0, blocked at gate)"
        )
        assert raised_on == ["phx-session-0"]
        _assert_torn_down(runtime, scheduler, serial)

    def test_a_session_of_another_run_is_refused(self):
        runtime, __, __ = _deploy(1)
        # READY, and its index is in range, but it is not this run's.
        scheduler = DeterministicScheduler(
            runtime,
            policy=_Picking(lambda sched: Session(1, lambda: None)),
        )
        with pytest.raises(
            InvariantViolationError,
            match=r"non-ready session Session\(#1, ready\)",
        ):
            scheduler.run(_waiter_and_opener(runtime, scheduler))


class _CountingTurn:
    """Test double for one half of the turnstile: a held raw lock that
    counts its releases (each release is one handoff)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._lock.acquire()
        self.releases = 0

    def acquire(self):
        return self._lock.acquire()

    def release(self):
        self.releases += 1
        self._lock.release()


@pytest.fixture
def counting_turns(monkeypatch):
    monkeypatch.setattr(
        "repro.concurrency.scheduler._held_lock", _CountingTurn
    )


def _yielding(runtime, yields: int):
    def session():
        for __ in range(yields):
            runtime.sched_yield("log.append:server")
        return True

    return session


class TestHandoffs:
    def test_at_most_one_turn_release_per_step(self, counting_turns):
        runtime, __, __ = _deploy(1)
        scheduler = DeterministicScheduler(runtime, seed=5)
        sessions, yields = 3, 4
        assert scheduler.run(
            [_yielding(runtime, yields)] * sessions
        ) == [True] * sessions
        steps = scheduler._step_index
        assert steps == sessions * (yields + 1)
        turns = sum(s.turn.releases for s in scheduler.sessions)
        # The run's first handoff, then at most one per step (none on a
        # self-pick); the old main-loop round trip made two per step.
        assert 0 < turns <= steps
        assert turns + scheduler._main_turn.releases <= steps + 1

    def test_the_main_thread_wakes_once_per_run(self, counting_turns):
        runtime, __, __ = _deploy(1)
        scheduler = DeterministicScheduler(runtime, seed=5)
        scheduler.run([_yielding(runtime, 3)] * 4)
        assert scheduler._main_turn.releases == 1
        scheduler.run([_yielding(runtime, 2)] * 2)
        assert scheduler._main_turn.releases == 2

    def test_a_one_session_run_releases_nothing_mid_run(
        self, counting_turns
    ):
        runtime, __, __ = _deploy(1)
        scheduler = DeterministicScheduler(runtime, seed=5)
        assert scheduler.run([_yielding(runtime, 5)]) == [True]
        assert scheduler._step_index == 6
        # Only the start (main -> session) and the end (session ->
        # main): every yield picks the yielding session itself.
        (session,) = scheduler.sessions
        assert session.turn.releases == 1
        assert scheduler._main_turn.releases == 1


@pytest.fixture
def built_steps(monkeypatch) -> list:
    """Every ScheduleStep the scheduler constructs."""
    built = []

    def building(**fields):
        step = ScheduleStep(**fields)
        built.append(step)
        return step

    monkeypatch.setattr(
        "repro.concurrency.scheduler.ScheduleStep", building
    )
    return built


class TestStepRecords:
    def test_no_step_is_built_when_nobody_observes(self, built_steps):
        runtime, __, counters = _deploy(3)
        scheduler = DeterministicScheduler(runtime, seed=11)
        scheduler.run(
            [lambda c=c: [c.increment() for __ in range(2)]
             for c in counters]
        )
        assert scheduler._step_index > 0
        assert built_steps == []

    def test_one_step_per_step_for_an_observing_policy(self, built_steps):
        runtime, __, counters = _deploy(3)
        policy = _RecordingPolicy(11)
        scheduler = DeterministicScheduler(runtime, policy=policy)
        scheduler.run(
            [lambda c=c: [c.increment() for __ in range(2)]
             for c in counters]
        )
        assert len(built_steps) == scheduler._step_index > 0
        assert policy.steps == built_steps


class TestTraceFootprint:
    def test_vector_clocks_stay_under_1_kib_per_traced_event_at_n64(self):
        """One flat tuple per traced decision (64 x 8 bytes + header,
        plus the live clocks' ints).  The pair-tuple form retained
        ~3.4 KiB here: a 2-tuple per observed session per event."""
        assert clock_bytes_per_traced_event(sessions=64) <= 1024


# ----------------------------------------------------------------------
# the incremental ready/blocked sets against a full rescan
# ----------------------------------------------------------------------
class _RescanCheck:
    """Policy mixin: at every decision recompute the READY set the way
    the loop used to (a scan of every session) and require the ``ready``
    handed to ``choose`` — and the ``enabled`` on the resulting step —
    to be exactly that."""

    decisions = 0

    def choose(self, ready, scheduler):
        rescan = [s for s in scheduler.sessions if s.state == "ready"]
        assert list(ready) == rescan, (ready, rescan)
        self._rescan_enabled = tuple(s.index for s in rescan)
        type(self).decisions += 1
        return super().choose(ready, scheduler)

    def observe(self, step):
        assert step.enabled == self._rescan_enabled, step
        super().observe(step)


def _checking(base):
    return type(f"Checking{base.__name__}", (_RescanCheck, base), {})


class TestReadySetMatchesARescan:
    def test_ledger_fault_free_and_crashed(self):
        policy_cls = _checking(ControlledPolicy)
        for specs in [(), *((spec,) for spec in derive_crash_specs())]:
            result = run(
                *EXPLORE_WORKLOADS["ledger"], specs=specs, policy=policy_cls()
            ).raise_error()
            assert not result.violations
            assert result.fired == [spec.render() for spec in specs]
        assert policy_cls.decisions > 0

    def test_concurrent_bookstore_crash_with_drain_workers(
        self, monkeypatch
    ):
        """Ghost unwinds after the crash, spawn()ed drain workers and
        group-commit windows, all under the seeded draw."""
        policy_cls = _checking(SeededRandomPolicy)
        monkeypatch.setattr(
            "repro.concurrency.scheduler.SeededRandomPolicy", policy_cls
        )
        leg = PHOENIX_LEGS["bookstore-concurrent-ondemand"]
        golden = run(*leg, record=True).raise_error()
        force_hits = [
            hit
            for hit in golden.journal
            if hit.site.startswith("log.force.before:beta-bookstore-app")
        ]
        chosen = force_hits[len(force_hits) // 2]
        armed = run(
            *leg, specs=(CrashSpec(chosen.site, chosen.occurrence),),
            record=True,
        ).raise_error()
        assert armed.fired and armed.replies == golden.replies
        assert not armed.violations
        sites = {hit.site.split(":")[0] for hit in armed.journal}
        assert "recovery.drain_worker" in sites
        assert policy_cls.decisions > 0

    def test_group_commit_sleep_to_deadline(self):
        """A lone session under group commit has nobody to close its
        window: every force ends with READY empty and a sleep to the
        batch deadline."""
        runtime, process, counters = _deploy(1, group_commit=True)
        policy = _checking(SeededRandomPolicy)(3)
        scheduler = DeterministicScheduler(runtime, policy=policy)
        assert scheduler.run(
            [lambda: [counters[0].increment() for __ in range(3)]]
        ) == [[1, 2, 3]]
        assert process.log.stats.group_commit_batches > 0
        assert policy.decisions > 0

    def test_deadlock_message_lists_every_blocked_session(self):
        runtime, __, counters = _deploy(3)
        policy = _checking(SeededRandomPolicy)(5)
        scheduler = DeterministicScheduler(runtime, policy=policy)

        def stuck(index):
            def session():
                counters[index].increment()
                scheduler.block_until(lambda: False, tag=f"never-{index}")

            return session

        with pytest.raises(InvariantViolationError) as excinfo:
            scheduler.run([stuck(i) for i in range(3)])
        assert str(excinfo.value) == (
            "scheduler deadlock: all sessions blocked: "
            "Session(#0, blocked at never-0), "
            "Session(#1, blocked at never-1), "
            "Session(#2, blocked at never-2)"
        )


# ----------------------------------------------------------------------
# the schedule itself is pinned
# ----------------------------------------------------------------------
PINNED_STEPS = Path(__file__).parent / "fixtures" / "steps_seed11.json"


class _RecordingPolicy(SeededRandomPolicy):
    def begin_run(self, scheduler):
        self.steps = []

    def observe(self, step):
        self.steps.append(step)


def _pinned_steps() -> list:
    """Seed 11 over four group-commit sessions, one of which spawns a
    worker: every ScheduleStep, as JSON-comparable rows."""
    runtime, __, counters = _deploy(5, group_commit=True)
    policy = _RecordingPolicy(11)
    scheduler = DeterministicScheduler(runtime, policy=policy)

    def make_session(index):
        def session():
            counters[index].increment()
            if index == 0:
                scheduler.spawn(
                    lambda: [counters[4].increment() for __ in range(2)]
                )
            return [counters[index].increment() for __ in range(2)]

        return session

    scheduler.run([make_session(i) for i in range(4)])
    return [
        [
            step.index, step.chosen, list(step.enabled),
            sorted(step.touched), step.park_tag, step.end_tag,
            step.final_state,
        ]
        for step in policy.steps
    ]


class TestPinnedSchedule:
    def test_same_seed_steps_equal_the_recorded_sequence(self):
        """Recorded before the ready set became incremental, the
        turnstile became raw locks and decisions moved onto the parking
        session's thread: same seed, same READY order, same draws, same
        steps."""
        assert _pinned_steps() == json.loads(PINNED_STEPS.read_text())
