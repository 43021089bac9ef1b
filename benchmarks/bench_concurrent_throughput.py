"""Group commit and pipelined commit under concurrent sessions
(Section 5.2.2 on two shared logs, plus the TRC107 relaxation).

N deterministic client sessions hammer a two-tier server: each session
owns a persistent front desk (Algorithm 3 toward the external client)
that calls its back-tier ledger (Algorithm 2 at the
persistent→persistent hop).  Without group commit every call performs
the same number of stable writes at any N.  With group commit, forces
that arrive within one disk-rotation window share a single write, so
writes per call fall as sessions are added.  With ``pipelined_commit``
on top, the Algorithm-2 committing sends are *causally* gated — a send
whose own happens-before prefix is already stable skips the force even
while other sessions' unforced appends sit above it — so writes per
call fall further and throughput rises.

``make perf`` runs the smoke session counts.  ``REPRO_BENCH_FULL=1``
runs the full N=1..64 series and rewrites the committed
``BENCH_concurrent.json`` (simulated clocks make the numbers
deterministic, so the file is byte-stable across machines).

``bench_bookkeeping_does_not_grow_with_sessions`` guards the wall-clock
side: what the scheduler's decisions and the trace's vector clocks cost
per step and per event must not track the session count.
"""

import json
import os
from pathlib import Path
from time import perf_counter_ns

from repro.concurrency import DeterministicScheduler
from repro.concurrency.bench import _run, clock_bytes_per_traced_event
from repro.concurrency.bench import bench_concurrent_throughput as experiment

from conftest import run_experiment

SMOKE_COUNTS = (1, 2, 4, 8)
FULL_COUNTS = (1, 2, 4, 8, 16, 32, 64)
CALLS_PER_SESSION = 6

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_concurrent.json"


def _column(table, index):
    return {
        int(label.split("=")[1]): cells[index].measured
        for label, cells in table.rows
    }


def bench_concurrent_throughput(benchmark):
    full = bool(os.environ.get("REPRO_BENCH_FULL"))
    counts = FULL_COUNTS if full else SMOKE_COUNTS
    table = run_experiment(
        benchmark, experiment,
        session_counts=counts, calls_per_session=CALLS_PER_SESSION,
    )
    off = _column(table, 0)
    on = _column(table, 1)
    pipe = _column(table, 2)
    shard = _column(table, 3)
    batches = _column(table, 4)
    gated = _column(table, 6)
    off_cps = _column(table, 7)
    on_cps = _column(table, 8)
    pipe_cps = _column(table, 9)
    shard_cps = _column(table, 10)

    # Without group commit each call performs its three committing
    # writes (front message 1, back reply-send, front message 2) at
    # every N; interleaving can only add the occasional extra write
    # when an Algorithm-2 force catches another session's unforced
    # bytes, so the series is pinned to a tight band above 3.
    assert off[1] == 3.0
    assert all(3.0 <= off[n] <= 3.35 for n in counts), off

    # With group commit, writes per call strictly decrease over the
    # smoke range and stay well below the no-group baseline everywhere.
    ordered = [on[n] for n in SMOKE_COUNTS]
    assert all(b < a for a, b in zip(ordered, ordered[1:])), ordered
    assert all(on[n] < off[n] for n in counts if n > 1)

    # A single session has nobody to share a window with: same number
    # of writes as with the flag off (it only waits out the window).
    assert on[1] == off[1]
    assert batches[1] > 0

    # Pipelined commit never forces more than plain group commit, and
    # once enough sessions interleave the causal gate actually fires:
    # strictly fewer writes per call and strictly higher throughput.
    assert all(pipe[n] <= on[n] for n in counts), (pipe, on)
    assert all(pipe_cps[n] >= on_cps[n] for n in counts)
    big = max(counts)
    assert gated[big] > 0
    assert pipe[big] < on[big], (pipe[big], on[big])
    assert pipe_cps[big] > on_cps[big]

    # The pipelined schedule stays conformant (TRC101–TRC108) at the
    # largest N — the throughput win is not bought with a lost causal
    # prefix.
    check = _run(
        big, group_commit=True, calls_per_session=CALLS_PER_SESSION,
        pipelined=True,
    )
    assert check.violations == (), check.violations

    # Sharded logging splits the sessions across two streams per
    # process, so each group-commit window sees only its own shard's
    # forces: writes per call track plain group commit at roughly half
    # the session count — never better than the shared log, identical
    # at N=1, and still strictly improving as sessions are added.  The
    # throughput cost is the price of the per-shard recovery
    # parallelism that ``bench_recovery_latency.py`` measures.
    assert shard[1] == on[1]
    assert all(shard[n] >= on[n] for n in counts), (shard, on)
    assert shard[big] < shard[2], shard
    check_sharded = _run(
        big, group_commit=True, calls_per_session=CALLS_PER_SESSION,
        sharded=True,
    )
    assert check_sharded.violations == (), check_sharded.violations

    if full:
        BENCH_JSON.write_text(
            json.dumps(
                {
                    "session_counts": list(counts),
                    "calls_per_session": CALLS_PER_SESSION,
                    "unit": {
                        "forces_per_call": "stable writes per call",
                        "calls_per_second": "calls per simulated second",
                    },
                    "no_group_commit": {
                        "forces_per_call": [off[n] for n in counts],
                        "calls_per_second": [off_cps[n] for n in counts],
                    },
                    "group_commit": {
                        "forces_per_call": [on[n] for n in counts],
                        "calls_per_second": [on_cps[n] for n in counts],
                    },
                    "pipelined_commit": {
                        "forces_per_call": [pipe[n] for n in counts],
                        "calls_per_second": [pipe_cps[n] for n in counts],
                        "gated_sends": [gated[n] for n in counts],
                    },
                    "sharded_logging": {
                        "forces_per_call": [shard[n] for n in counts],
                        "calls_per_second": [shard_cps[n] for n in counts],
                    },
                },
                indent=2,
            )
            + "\n"
        )


def _decision_self_us_per_step(sessions: int, repeats: int = 5) -> float:
    """The scheduler's own wall time per scheduling step — time inside
    ``_decide``, on whichever thread takes the decision (the main
    thread for a run's first, then each session whose step ends) —
    over a pipelined run.  A decision never runs session code, so its
    whole time is bookkeeping.  Pinned to one core like ``perf/``
    (exactly one turnstile thread is runnable at a time; unpinned, where
    the OS puts the woken thread doubles the spread); best of
    ``repeats``, because interference only ever adds time."""
    decide, run = DeterministicScheduler._decide, DeterministicScheduler.run
    spent = {}

    def timed_decide(self, ended):
        started = perf_counter_ns()
        try:
            return decide(self, ended)
        finally:
            spent["decide"] += perf_counter_ns() - started

    def counted_run(self, fns):
        try:
            return run(self, fns)
        finally:
            spent["steps"] += self._step_index

    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if allowed:
        os.sched_setaffinity(0, {max(allowed)})
    DeterministicScheduler._decide = timed_decide
    DeterministicScheduler.run = counted_run
    try:
        best = float("inf")
        for __ in range(repeats):
            spent.update(decide=0, steps=0)
            _run(
                sessions, group_commit=True,
                calls_per_session=CALLS_PER_SESSION, pipelined=True,
            )
            best = min(best, spent["decide"] / spent["steps"] / 1e3)
        return best
    finally:
        DeterministicScheduler._decide = decide
        DeterministicScheduler.run = run
        if allowed:
            os.sched_setaffinity(0, allowed)


#: Decision self time per step at N=64 over N=8.  Flat it is not: most
#: of 64 sessions wait on a commit window and each blocked predicate is
#: still polled every step (O(blocked)): about 0.35 us per blocked
#: session, and nearly all of the difference.  On a 2-core x86 box the
#: decision measures 1.2-1.7 (2.9-5.6 -> 4.5-8.0 us; 3 of 48 runs read
#: 1.82-1.86); the main-thread loop it replaced measured 1.36-1.52
#: (7.3-10.1 -> 11.0-13.7 us) as loop wall minus resume wall.  The
#: decision's constant shrank and the polls did not, so the ratio rose;
#: keep it under the bound by cutting N-dependent work (waking
#: group-commit waiters from their batch instead of polling them),
#: never by raising the bound.
LOOP_SELF_RATIO_MAX = 1.75


def bench_bookkeeping_does_not_grow_with_sessions(benchmark):
    small, big = benchmark.pedantic(
        lambda: (
            _decision_self_us_per_step(8), _decision_self_us_per_step(64)
        ),
        iterations=1, rounds=1,
    )
    per_event = clock_bytes_per_traced_event(64)
    print(
        f"\ndecision self time per step: N=8 {small:.2f} us, N=64 {big:.2f} us "
        f"(ratio {big / small:.2f}); vector-clock bytes per traced event "
        f"at N=64: {per_event:.0f}"
    )
    assert big / small <= LOOP_SELF_RATIO_MAX, (small, big)
    assert per_event <= 1024, per_event


if __name__ == "__main__":
    os.environ["REPRO_BENCH_FULL"] = "1"

    class _Inline:
        def pedantic(self, fn, iterations=1, rounds=1):
            return fn()

    bench_concurrent_throughput(_Inline())
    print(f"wrote {BENCH_JSON}")
