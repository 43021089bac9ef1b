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
  watermarks are volatile bookkeeping; a crash (and a torn-tail
  repair, which can truncate BELOW the crash-time stable LSN) must
  clamp every stored watermark to the surviving boundary, and a fresh
  scheduler run must never inherit stale entries.
* **Serial fallback** — outside an active scheduler run the causal
  commit point degenerates to the paper's global ``end_lsn``.
"""

import pytest

from repro import PhoenixRuntime, RuntimeConfig
from repro.concurrency import DeterministicScheduler
from repro.concurrency.bench import _run as _bench_run
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
    def test_clamp_pulls_every_stored_watermark_to_the_boundary(self):
        """The clamp must cover all three stores — per-session maps,
        parked context-edge maps, and the serial baseline — because any
        surviving entry above the boundary would gate a future send
        against durability that no longer exists (the crash wiped those
        bytes and their LSNs will be reused)."""
        runtime, process, counters = _deploy(
            1, group_commit=True, pipelined_commit=True
        )
        scheduler = DeterministicScheduler(runtime, seed=0)
        scheduler.run([_persistent_session(counters[0], 2)])
        name = process.log.process_name
        bound = process.log.stable_lsn
        scheduler._wms[0] = {name: bound + 10_000, "other": 7}
        scheduler._context_wms["ctx"] = {name: bound + 5_000}
        scheduler._serial_wm[name] = bound + 1
        scheduler.clamp_watermarks(process)
        assert scheduler._wms[0][name] == bound
        assert scheduler._wms[0]["other"] == 7  # other logs untouched
        assert scheduler._context_wms["ctx"][name] == bound
        assert scheduler._serial_wm[name] == bound

    def test_a_fresh_run_never_inherits_stale_watermarks(self):
        """``run()`` rebuilds the per-session maps and re-captures the
        serial baseline, so watermarks poisoned between runs (e.g. by a
        crash whose process never ran again) cannot leak forward."""
        runtime, process, counters = _deploy(
            1, group_commit=True, pipelined_commit=True
        )
        scheduler = DeterministicScheduler(runtime, seed=0)
        scheduler.run([_persistent_session(counters[0], 1)])
        name = process.log.process_name
        scheduler._wms[0] = {name: 10**9}
        scheduler._serial_wm[name] = 10**9
        observed = {}

        def session():
            value = counters[0].increment()
            wm = scheduler.session_watermarks(scheduler.current_session())
            observed["wm"] = dict(wm)
            return value

        scheduler.run([session])
        assert observed["wm"].get(name, 0) <= process.log.end_lsn

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
        """Neither the serial scheduler nor a deterministic one outside
        its run has a session whose watermark could relax the point."""
        runtime, process, counters = _deploy(
            1, group_commit=True, pipelined_commit=True
        )
        counters[0].increment()
        log = process.log
        for gate in (runtime.scheduler, DeterministicScheduler(runtime)):
            assert gate.commit_point(log) == log.end_lsn
