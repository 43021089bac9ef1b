"""On-demand (incremental) recovery: lazy first-touch replay, background
drain workers, recover-twice idempotency, and the flag-off pin.

The invariant under test: ``config.on_demand_recovery`` changes *when*
components are replayed (lazily, on first touch, or by background drain
workers) but never *what* replay produces — replies and component state
must be byte-identical to eager recovery, and with the flag off a
restart must drain every chain before it admits a call.
"""

import pytest

from repro import PhoenixRuntime, RuntimeConfig
from repro.faults.plane import CrashSpec, FaultPlane, installed
from repro.faults.workloads import PHOENIX_LEGS, _capture_state, run
from repro.recovery.incremental import PendingRecovery
from tests.conftest import Counter

COUNTERS = 4
ROUNDS = 5


def _build(on_demand: bool):
    """One server process hosting four counters with a call history."""
    config = RuntimeConfig.optimized(on_demand_recovery=on_demand)
    runtime = PhoenixRuntime(config=config)
    process = runtime.spawn_process("shop", machine="beta")
    counters = [
        process.create_component(Counter, args=(index * 100,))
        for index in range(COUNTERS)
    ]
    for __ in range(ROUNDS):
        for counter in counters:
            counter.increment()
    return runtime, process, counters


def _mid_run_server_force(golden):
    """A crash at the bookstore server's middle force of ``golden``'s
    run."""
    force_hits = [
        hit
        for hit in golden.journal
        if hit.site.startswith("log.force.before:beta-bookstore-app")
    ]
    chosen = force_hits[len(force_hits) // 2]
    return CrashSpec(chosen.site, chosen.occurrence)


def _post_crash_script(runtime, process, counters):
    """The observable outcome of the post-crash traffic plus the fully
    drained state fingerprint."""
    replies = [counters[1].increment(), counters[3].value()]
    replies.extend(counter.value() for counter in counters)
    runtime.ensure_recovered(process)
    return replies, _capture_state(runtime)


class TestLazyFirstTouch:
    def test_lazy_replay_matches_eager_byte_for_byte(self):
        outcomes = {}
        for on_demand in (False, True):
            runtime, process, counters = _build(on_demand)
            process.crash()
            outcomes[on_demand] = _post_crash_script(
                runtime, process, counters
            )
        assert outcomes[True] == outcomes[False]

    def test_first_touch_replays_only_the_target(self):
        runtime, process, counters = _build(on_demand=True)
        process.crash()
        assert counters[2].increment() == 100 * 2 + ROUNDS + 1
        pending = process.pending_recovery
        assert pending is not None
        # The touched component is recovered; the others still pend.
        assert pending.component_recovered(3)
        assert pending.pending_count() > 0
        runtime.ensure_recovered(process)
        assert process.pending_recovery is None

    def test_untouched_components_drain_on_the_barrier(self):
        runtime, process, counters = _build(on_demand=True)
        process.crash()
        runtime.ensure_recovered(process)
        assert process.pending_recovery is None
        assert [c.value() for c in counters] == [
            index * 100 + ROUNDS for index in range(COUNTERS)
        ]


class TestRecoverTwice:
    def test_crash_mid_pending_then_full_recovery(self):
        """A second crash while the watermark table is still pending
        must discard it and recover from the logs alone."""
        runtime, process, counters = _build(on_demand=True)
        process.crash()
        counters[0].increment()  # partial: one lazy replay
        assert process.pending_recovery is not None
        process.crash()
        assert process.pending_recovery is None
        runtime.ensure_recovered(process)
        assert [c.value() for c in counters] == [
            ROUNDS + 1,
            100 + ROUNDS,
            200 + ROUNDS,
            300 + ROUNDS,
        ]

    def test_recover_twice_is_idempotent(self):
        runtime, process, counters = _build(on_demand=True)
        process.crash()
        runtime.ensure_recovered(process)
        first = _capture_state(runtime)
        process.crash()
        runtime.ensure_recovered(process)
        assert _capture_state(runtime) == first


class TestWorkloadParity:
    def test_ondemand_workload_matches_eager_golden(self):
        eager = run(*PHOENIX_LEGS["bookstore"]).raise_error()
        ondemand = run(*PHOENIX_LEGS["bookstore-ondemand"]).raise_error()
        assert ondemand.replies == eager.replies
        assert ondemand.state == eager.state
        assert ondemand.state_after_recover == eager.state_after_recover
        assert not ondemand.violations

    def test_crashed_ondemand_run_matches_its_golden(self):
        golden = run(
            *PHOENIX_LEGS["bookstore-ondemand"], record=True
        ).raise_error()
        force_hits = [
            hit
            for hit in golden.journal
            if hit.site.startswith("log.force.before:")
        ]
        spec = CrashSpec(
            force_hits[len(force_hits) // 2].site,
            force_hits[len(force_hits) // 2].occurrence,
        )
        armed = run(
            *PHOENIX_LEGS["bookstore-ondemand"], specs=(spec,), record=True
        ).raise_error()
        assert armed.fired == [spec.render()]
        assert armed.replies == golden.replies
        assert armed.state == golden.state
        assert not armed.violations
        sites = {hit.site.split(":")[0] for hit in armed.journal}
        assert "recovery.admit_early" in sites
        assert "recovery.lazy_replay.before" in sites


class TestConcurrentDrainDeterminism:
    @pytest.mark.parametrize("seed", [5824, 1234])
    def test_same_seed_same_crash_same_bytes(self, seed):
        """Two same-seed crashed runs with background drain workers in
        the interleaving produce byte-identical logs, traces and
        clocks."""
        leg = PHOENIX_LEGS["bookstore-concurrent-ondemand"]
        golden = run(*leg, record=True, seed=seed).raise_error()
        spec = _mid_run_server_force(golden)
        first = run(*leg, specs=(spec,), record=True, seed=seed).raise_error()
        second = run(*leg, specs=(spec,), seed=seed).raise_error()
        assert first.fired == [spec.render()]
        assert first.determinism == second.determinism
        assert first.replies == second.replies
        assert first.state == second.state
        assert first.replies == golden.replies
        assert first.state == golden.state
        assert not first.violations

    def test_drain_workers_join_the_interleaving(self):
        leg = PHOENIX_LEGS["bookstore-concurrent-ondemand"]
        spec = _mid_run_server_force(run(*leg, record=True).raise_error())
        armed = run(*leg, specs=(spec,), record=True).raise_error()
        sites = {hit.site.split(":")[0] for hit in armed.journal}
        assert "recovery.drain_worker" in sites

    def test_drain_sessions_hold_a_process_frame(self, monkeypatch):
        """Every background drain replays inside a frame of the
        incarnation it recovers, so a second crash while it is parked
        ghosts it instead of letting it run on the retired table."""
        held = []
        replay = PendingRecovery._replay_component

        def recording(self, mark):
            session = self.runtime.scheduler.current_session()
            if session is not None and session.system:
                frame = (self.process, self.process.incarnation)
                held.append(frame in session.frames)
            replay(self, mark)

        monkeypatch.setattr(PendingRecovery, "_replay_component", recording)
        leg = PHOENIX_LEGS["bookstore-concurrent-ondemand"]
        spec = _mid_run_server_force(run(*leg, record=True).raise_error())
        run(*leg, specs=(spec,)).raise_error()
        assert held and all(held)


class TestFlagOffPin:
    def test_flag_defaults_off(self):
        assert RuntimeConfig.optimized().on_demand_recovery is False

    def test_eager_path_never_admits_early(self):
        """With the flag off, a restart drains every chain before it
        returns: the journal shows the eager pass boundaries and the
        per-chain replays, but no early admission and no drain worker."""
        runtime, process, counters = _build(on_demand=False)
        plane = FaultPlane(record=True)
        plane.bind(runtime)
        with installed(plane):
            process.crash()
            runtime.restart_process(process)
            assert process.pending_recovery is None
            counters[0].increment()
        sites = {hit.site.split(":")[0] for hit in plane.journal}
        assert {
            "recovery.pass2",
            "recovery.lazy_replay.before",
            "recovery.lazy_replay.after",
            "recovery.drained",
            "recovery.done",
        } <= sites
        assert not sites & {"recovery.admit_early", "recovery.drain_worker"}

    def test_flag_off_runs_are_byte_identical(self):
        fingerprints = []
        for __ in range(2):
            runtime, process, counters = _build(on_demand=False)
            process.crash()
            counters[0].increment()
            runtime.ensure_recovered(process)
            fingerprints.append(
                {
                    "log": process.log.stable_bytes(),
                    "trace": repr(process.streams[0].trace.entries).encode(),
                    "state": _capture_state(runtime),
                }
            )
        assert fingerprints[0] == fingerprints[1]
