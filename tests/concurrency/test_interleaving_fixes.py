"""Regression tests for the interleaving bugs the scheduler flushed out.

Each class pins one fix:

* per-session execution stacks — a crash unwinding in one session must
  not pop a context frame another session pushed;
* context admission — two sessions calling the SAME component are
  serialized at the context boundary instead of corrupting its
  ``current_call`` book-keeping;
* the Section 3.5 multi-call skip — a later-server force may only be
  skipped when the log is stable through THIS call's own forces; another
  in-flight session's unforced tail justifies nothing.
"""

from repro import PhoenixRuntime, RuntimeConfig
from repro.common.messages import MethodCallMessage
from repro.concurrency import DeterministicScheduler
from repro.core.context import CurrentCall
from repro.errors import ComponentUnavailableError
from repro.faults.plane import CrashSpec, FaultPlane, installed

from ..conftest import Counter

ATTEMPTS = 8


def _deploy(n_counters: int, **overrides):
    runtime = PhoenixRuntime(config=RuntimeConfig.optimized(**overrides))
    runtime.external_client_machine = "alpha"
    process = runtime.spawn_process("server", machine="beta")
    counters = [
        process.create_component(Counter) for __ in range(n_counters)
    ]
    return runtime, process, counters


def _persistent_session(counter, calls):
    """A client session that rides out server crashes by retrying."""

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


class TestPerSessionExecutionStacks:
    def test_crash_in_one_session_spares_the_other_sessions_frames(self):
        """Session A's call crashes the server while session B is parked
        mid-call at a yield point inside the same process.  A's unwind
        must pop only A's context frames: B retries, finishes with the
        right count, and every session's execution stack drains to
        empty.  With the old process-global stack, A's unwind popped
        B's live frame."""
        runtime, process, counters = _deploy(2)
        plane = FaultPlane(
            specs=(CrashSpec("log.force.before:beta-server", 5),)
        )
        plane.bind(runtime)
        scheduler = DeterministicScheduler(runtime, seed=4)
        with installed(plane):
            results = scheduler.run(
                [_persistent_session(c, 3) for c in counters]
            )
        assert plane.fired, "the crash spec never fired"
        assert results == [3, 3]
        assert all(not stack for stack in runtime._exec_stacks.values())

    def test_stacks_are_keyed_by_session(self):
        runtime, process, counters = _deploy(2)
        scheduler = DeterministicScheduler(runtime, seed=4)
        seen: set[int | None] = set()

        def make_session(index):
            def session():
                counters[index].increment()
                seen.update(runtime._exec_stacks.keys())
                return True

            return session

        assert scheduler.run([make_session(0), make_session(1)]) == [
            True,
            True,
        ]
        # Both sessions grew their own stack next to the serial one.
        assert {None, 0, 1} <= seen


class TestContextAdmission:
    def test_two_sessions_one_component_serialize_cleanly(self):
        runtime, process, counters = _deploy(1)
        shared = counters[0]
        scheduler = DeterministicScheduler(runtime, seed=8)
        results = scheduler.run(
            [_persistent_session(shared, 3), _persistent_session(shared, 3)]
        )
        # Six increments executed exactly once each, in SOME order.
        assert max(results) == 6
        assert shared.value() == 6


class TestMulticallWatermark:
    """Unit-level pin on the Section 3.5 gate (the end-to-end
    interleavings live in the crash-point sweep's bookstore-concurrent
    workload)."""

    @staticmethod
    def _call(behind: int):
        """Drive message 3 through the policy for a context whose call
        already forced once and called server ``s1``, with the log
        stable ``behind`` bytes short of what that call believes it
        forced.  Returns (skipped?, forces requested)."""
        runtime, process, counters = _deploy(
            1, multicall_optimization=True
        )
        counters[0].increment()  # a real log, stable through its end
        context = process.contexts()[0]
        log = process.log
        current = CurrentCall(message=None)
        current.forced_once = True
        current.servers_called.add("m/p/s1")
        current.forced_watermark = log.stable_lsn + behind
        context.current_call = current
        requested = log.stats.forces_requested
        process.policy.on_outgoing_call(
            context,
            MethodCallMessage(target_uri="m/p/s2/method", method="method"),
            server_type=None,
            method_read_only=False,
        )
        context.current_call = None
        skipped = process.streams[0].trace.events()[-1].multicall_skip
        return skipped, log.stats.forces_requested - requested

    def test_skip_requires_stability_through_own_forces(self):
        # Serial shape: the call's first force made the log stable
        # through the watermark -> a new server needs no force.
        skipped, forces = self._call(behind=0)
        assert skipped and not forces

        # Interleaved shape: between this call's force and now, another
        # session appended (and maybe coalesced) so the stable point
        # sits BELOW what this call believes it forced.  Skipping here
        # would let a reply leave before its records are durable.
        skipped, forces = self._call(behind=30)
        assert not skipped and forces
