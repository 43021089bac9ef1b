"""Pipelined causal commit (docs/internals.md section 14).

Four pins:

* **Gating** — under ``pipelined_commit`` an Algorithm-2 committing
  send whose causal prefix is already stable skips its force outright;
  the run stays conformant (TRC101–TRC108) and never performs more
  writes than plain group commit on the same schedule.
* **Leader crash** — a rider blocked in a group-commit (or pipelined)
  window whose leader's process crashes must unwind via the
  ghost-frame CrashSignal and retry, never wedge the turnstile.  A
  wedge would surface as the scheduler's all-blocked deadlock error,
  so plain completion of the run is the proof.
* **Watermarks die with the process** — the per-session durability
  watermarks are keyed by the incarnation's ``LogManager``, so after a
  crash no pre-crash entry can set a commit point on the new
  incarnation's log, and a fresh scheduler run never inherits stale
  entries.
* **Serial fallback** — the serial and group gates, and the causal gate
  outside an active scheduler run, use the paper's global ``end_lsn``.
"""

import pytest

from repro import PhoenixRuntime, RuntimeConfig
from repro.analysis.trace import CrashMark
from repro.analysis.trace_check import check_runtime
from repro.concurrency import DeterministicScheduler
from repro.concurrency.bench import _run as _bench_run
from repro.core.commit import CausalGate, GroupGate, SerialGate
from repro.errors import ComponentUnavailableError
from repro.faults.plane import CrashSpec, FaultPlane, installed

from ..conftest import Counter

SESSIONS = 8
CALLS = 6


def _deploy(n_counters: int, **overrides):
    runtime = PhoenixRuntime(config=RuntimeConfig.optimized(**overrides))
    runtime.external_client_machine = "alpha"
    process = runtime.spawn_process("server", machine="beta")
    counters = [
        process.create_component(Counter) for __ in range(n_counters)
    ]
    return runtime, process, counters


def _persistent_session(counter, calls):
    def session():
        done = 0
        last = None
        while done < calls:
            try:
                last = counter.increment()
            except ComponentUnavailableError:
                continue
            done += 1
        return last

    return session


class TestPipelinedForceGating:
    def test_gated_sends_skip_the_force_and_stay_conformant(self):
        group = _bench_run(
            SESSIONS, group_commit=True, calls_per_session=CALLS
        )
        pipe = _bench_run(
            SESSIONS, group_commit=True, calls_per_session=CALLS,
            pipelined=True,
        )
        # The causal gate actually fires on the two-tier workload...
        assert pipe.pipelined_gated > 0
        # ...buys a strictly smaller write bill and no extra time...
        assert pipe.forces_performed < group.forces_performed
        assert pipe.elapsed_ms <= group.elapsed_ms
        # ...and the relaxed ordering is still causally sound.
        assert pipe.violations == (), pipe.violations

    def test_pipelined_runs_are_byte_deterministic(self):
        first = _bench_run(
            SESSIONS, group_commit=True, calls_per_session=CALLS,
            pipelined=True,
        )
        second = _bench_run(
            SESSIONS, group_commit=True, calls_per_session=CALLS,
            pipelined=True,
        )
        assert first.fingerprint == second.fingerprint
        other = _bench_run(
            SESSIONS, group_commit=True, calls_per_session=CALLS,
            pipelined=True, seed=11,
        )
        assert other.fingerprint != first.fingerprint
        assert other.violations == (), other.violations

    def test_flag_off_never_gates(self):
        group = _bench_run(
            SESSIONS, group_commit=True, calls_per_session=CALLS
        )
        assert group.pipelined_gated == 0
        assert group.pipelined_write_skips == 0


class TestLeaderCrashUnwindsRiders:
    @pytest.mark.parametrize("pipelined", [False, True])
    @pytest.mark.parametrize("occurrence", [3, 5])
    def test_riders_unwind_and_retry_through_a_leader_crash(
        self, pipelined, occurrence
    ):
        """Four sessions share one server log with group commit on; the
        crash spec fires inside a batch's shared write, i.e. while the
        other window members are parked as riders.  Each rider must be
        unwound by the stale ghost-frame CrashSignal (converted to a
        retryable error at the session boundary) — a wedged rider would
        deadlock the scheduler, and a leaked frame would show up in the
        execution stacks."""
        runtime, process, counters = _deploy(
            4, group_commit=True, pipelined_commit=pipelined
        )
        plane = FaultPlane(
            specs=(CrashSpec("log.force.before:beta-server", occurrence),)
        )
        plane.bind(runtime)
        scheduler = DeterministicScheduler(runtime, seed=4)
        with installed(plane):
            results = scheduler.run(
                [_persistent_session(c, 3) for c in counters]
            )
        assert plane.fired, "the crash spec never fired"
        assert results == [3, 3, 3, 3]
        assert process.log.stats.group_commit_riders > 0
        assert all(not stack for stack in runtime._exec_stacks.values())


class TestWatermarksDieWithTheProcess:
    @pytest.mark.parametrize("occurrence", [3, 5])
    def test_a_crash_mid_run_orphans_every_pre_crash_entry(
        self, monkeypatch, occurrence
    ):
        """The server crashes inside a batch's shared write.  Sessions
        keep their pre-crash entries, keyed by the dead incarnation's
        log, until the run ends; those must match nothing.  So every
        commit point on the new incarnation's log is 0 or an end LSN
        some session appended to that very log, and every send traced
        after the crash mark commits at 0 or above the mark."""
        runtime, process, counters = _deploy(
            4, group_commit=True, pipelined_commit=True
        )
        dead_log = process.log
        appended: dict[object, set[int]] = {}
        points: list[tuple[object, int, bool]] = []
        note_append = CausalGate.note_append
        commit_point = CausalGate.commit_point

        def spy_append(gate, log):
            note_append(gate, log)
            appended.setdefault(log, set()).add(log.end_lsn)

        def spy_point(gate, log):
            point = commit_point(gate, log)
            session = runtime.scheduler.current_session()
            if session is not None:
                table = gate.session_watermarks(session)
                points.append((log, point, dead_log in table))
            return point

        monkeypatch.setattr(CausalGate, "note_append", spy_append)
        monkeypatch.setattr(CausalGate, "commit_point", spy_point)
        plane = FaultPlane(
            specs=(CrashSpec("log.force.before:beta-server", occurrence),)
        )
        plane.bind(runtime)
        scheduler = DeterministicScheduler(runtime, seed=4)
        with installed(plane):
            results = scheduler.run(
                [_persistent_session(c, 3) for c in counters]
            )
        assert plane.fired, "the crash spec never fired"
        assert results == [3, 3, 3, 3]
        live_log = process.log
        assert live_log is not dead_log
        after = [(point, held) for log, point, held in points
                 if log is live_log]
        assert any(held for __, held in after), (
            "no session still held a pre-crash entry: the test is vacuous"
        )
        for point, __ in after:
            assert point == 0 or point in appended[live_log], point

        entries = process.streams[0].trace.entries
        last = max(
            i for i, e in enumerate(entries) if isinstance(e, CrashMark)
        )
        boundary = entries[last].stable_lsn
        sends = [
            e for e in entries[last + 1:]
            if e.commit_lsn is not None and not e.interrupted
        ]
        assert sends
        assert all(
            e.commit_lsn == 0 or e.commit_lsn > boundary for e in sends
        ), [e.commit_lsn for e in sends]
        assert check_runtime(runtime) == []

    def test_a_fresh_run_never_inherits_stale_watermarks(self):
        """The gate drops its tables at run end and rebuilds them at run
        begin, seeding every session with the logs' current ends, so
        watermarks poisoned between runs cannot leak forward."""
        runtime, process, counters = _deploy(
            1, group_commit=True, pipelined_commit=True
        )
        gate = runtime.commit
        scheduler = DeterministicScheduler(runtime, seed=0)
        scheduler.run([_persistent_session(counters[0], 1)])
        assert (gate._wms, gate._context_wms) == ({}, {})
        log = process.log
        gate._wms[0] = {log: 10**9}
        gate._context_wms["ctx"] = {log: 10**9}
        observed = {}

        def session():
            value = counters[0].increment()
            wm = gate.session_watermarks(scheduler.current_session())
            observed["wm"] = dict(wm)
            observed["point"] = gate.commit_point(log)
            return value

        scheduler.run([session])
        assert observed["wm"].get(log, 0) <= log.end_lsn
        assert observed["point"] <= log.end_lsn

    def test_recover_twice_is_idempotent_under_pipelined_commit(self):
        """Crash everything after a pipelined run, recover, crash and
        recover again: stable logs and component state must be
        byte-identical across the two recoveries — the watermark
        rebuild leaves nothing schedule-dependent behind."""
        runtime, process, counters = _deploy(
            3, group_commit=True, pipelined_commit=True
        )
        scheduler = DeterministicScheduler(runtime, seed=4)
        scheduler.run([_persistent_session(c, 3) for c in counters])

        def capture():
            runtime.crash_process(process)
            runtime.ensure_recovered(process)
            return (
                process.log.stable_bytes(),
                [c.value() for c in counters],
            )

        first = capture()
        second = capture()
        assert first[1] == [3, 3, 3]
        assert first == second


class TestSerialFallback:
    def test_commit_point_is_end_of_log_outside_a_run(self):
        """Without an active scheduler there is no session watermark to
        relax against: every committing decision's commit point must be
        the paper's global ``end_lsn`` even with the flag on."""
        runtime, process, counters = _deploy(
            1, group_commit=True, pipelined_commit=True
        )
        counters[0].increment()
        committed = [
            event for event in process.streams[0].trace.events()
            if event.commit_lsn is not None
        ]
        assert committed, "an external call commits messages 1 and 2"
        assert all(
            event.commit_lsn == event.end_lsn for event in committed
        )

    def test_scheduler_commit_point_is_end_lsn(self):
        """The serial and group gates always answer ``end_lsn``, inside
        a run too; the causal gate does outside a run, where no session
        has a watermark that could relax the point."""
        for flags, kind in (
            ({}, SerialGate),
            ({"group_commit": True}, GroupGate),
            ({"group_commit": True, "pipelined_commit": True}, CausalGate),
        ):
            runtime, process, counters = _deploy(1, **flags)
            gate = runtime.commit
            assert type(gate) is kind
            counters[0].increment()
            log = process.log
            assert gate.commit_point(log) == log.end_lsn
            if kind is CausalGate:
                continue
            seen = []

            def session():
                value = counters[0].increment()
                seen.append(gate.commit_point(log) == log.end_lsn)
                return value

            DeterministicScheduler(runtime, seed=0).run([session])
            assert seen == [True]
