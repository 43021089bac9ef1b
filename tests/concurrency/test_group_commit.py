"""Group commit: one shared stable write per rotation window
(docs/internals.md section 11, paper Section 5.2.2)."""

from repro import PhoenixRuntime, RuntimeConfig
from repro.concurrency import DeterministicScheduler

from ..conftest import Counter

CALLS = 5


def _run(n_sessions: int, group_commit: bool, seed: int = 6):
    runtime = PhoenixRuntime(
        config=RuntimeConfig.optimized(group_commit=group_commit)
    )
    runtime.external_client_machine = "alpha"
    process = runtime.spawn_process("server", machine="beta")
    counters = [
        process.create_component(Counter) for __ in range(n_sessions)
    ]

    def make_session(index):
        def session():
            last = 0
            for __ in range(CALLS):
                last = counters[index].increment()
            return last

        return session

    before = process.log.stats.snapshot()
    scheduler = DeterministicScheduler(runtime, seed=seed)
    results = scheduler.run([make_session(i) for i in range(n_sessions)])
    return runtime, process, results, before


class TestGroupCommit:
    def test_riders_share_the_leaders_write(self):
        __, off_proc, off_results, off_before = _run(4, group_commit=False)
        __, on_proc, on_results, on_before = _run(4, group_commit=True)
        assert on_results == off_results == [CALLS] * 4

        off, on = off_proc.log.stats, on_proc.log.stats
        # Same demand either way...
        assert (
            on.forces_requested - on_before.forces_requested
            == off.forces_requested - off_before.forces_requested
        )
        # ...but riders' requests are satisfied by the leader's write.
        assert on.forces_performed < off.forces_performed
        assert on.group_commit_batches > 0
        assert on.group_commit_riders > 0
        assert off.group_commit_batches == off.group_commit_riders == 0
        # Every batched request is either the leader's or a rider's.
        assert (
            on.forces_performed + on.group_commit_riders
            >= on.forces_requested - on_before.forces_requested
        )

    def test_single_session_pays_the_window_but_writes_the_same(self):
        """N=1 has nobody to share with: identical write counts, only
        latency (the window wait) differs."""
        off_rt, off_proc, __, __ = _run(1, group_commit=False)
        on_rt, on_proc, __, __ = _run(1, group_commit=True)
        assert (
            on_proc.log.stats.forces_performed
            == off_proc.log.stats.forces_performed
        )
        assert on_proc.log.stats.group_commit_batches > 0
        assert on_proc.log.stats.group_commit_riders == 0
        assert on_rt.clock.now > off_rt.clock.now

    def test_an_empty_force_never_opens_a_window(self):
        runtime = PhoenixRuntime(
            config=RuntimeConfig.optimized(group_commit=True)
        )
        runtime.external_client_machine = "alpha"
        process = runtime.spawn_process("server", machine="beta")
        counter = process.create_component(Counter)
        scheduler = DeterministicScheduler(runtime, seed=0)

        def session():
            counter.increment()  # drains the buffer (forces twice)
            before = process.log.stats.group_commit_batches
            assert process.log.stable_lsn == process.log.end_lsn
            process.log_force()  # nothing buffered: serial fast path
            assert process.log.stats.group_commit_batches == before
            return True

        assert scheduler.run([session]) == [True]

    def test_window_width_follows_disk_rotation_by_default(self):
        runtime = PhoenixRuntime(
            config=RuntimeConfig.optimized(group_commit=True)
        )
        process = runtime.spawn_process("server", machine="beta")
        assert (
            process.streams[0].group_window_ms()
            == process.machine.disk.geometry.rotation_ms
        )
        narrow = PhoenixRuntime(
            config=RuntimeConfig.optimized(
                group_commit=True, group_commit_window_ms=2.5
            )
        )
        nproc = narrow.spawn_process("server", machine="beta")
        assert nproc.streams[0].group_window_ms() == 2.5
