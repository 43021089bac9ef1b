"""Seed determinism gate over the workload catalogue (``make concurrency``).

Every Phoenix leg — the sweep's (:data:`~repro.faults.workloads.PHOENIX_LEGS`)
and the explorer's (``EXPLORE_WORKLOADS``) — goes through
:func:`gate_leg`:

1. **Same-seed identity** — two runs with one seed give byte-identical
   stable logs, identical traces and clock, and identical replies.
   A divergence is reported as the *first divergent trace event*, so a
   nondeterminism leak points at the protocol decision that varied.
2. **Different-seed independence** (multi-session legs) — a run with
   :data:`ALTERNATE_SEED` changes the leg's fingerprints (the seed
   reaches the schedule), passes the full oracle and, unless the
   workload's sessions race by design, gives the same answers.

Across legs: every leg of a workload whose answers do not depend on the
schedule gives the replies and final state of its first leg; sharded
legs have per-shard ``@shard-id`` streams and no other leg does.  Last, the two-tier throughput workload with
``pipelined_commit`` at N=8 is byte-identical across same-seed runs,
diverges (conformantly) under the alternate seed, and never forces more
per call than plain group commit on the same schedule.
"""

from __future__ import annotations

from ..faults.workloads import PHOENIX_LEGS, RunOutcome, run
from .explore import EXPLORE_WORKLOADS

#: The alternate seed for the independence check: it must draw a
#: different schedule from ``CONCURRENT_SEED`` on every multi-session
#: leg.  The two-session ``ledger-pipelined`` leg has few reachable
#: commit orders, and many seeds (271828, 42, 1234 among them) draw the
#: default's; this one does not.  Pinned so the check is deterministic.
ALTERNATE_SEED = 99

#: Workloads whose sessions race on shared state by design (the
#: ledger's posts land in schedule order), so their answers may differ
#: between schedules — and a flag changes the schedule as a seed does.
SCHEDULE_DEPENDENT_ANSWERS = frozenset({"ledger"})

#: Session count for the pipelined determinism leg.
PIPELINED_SESSIONS = 8

#: Calls per session for the pipelined determinism leg.
PIPELINED_CALLS = 6


def _first_trace_divergence(first: RunOutcome, second: RunOutcome) -> str:
    """Locate the first trace event that differs between two runs
    (stream in name order, then event index)."""
    traces = sorted(
        key for key in set(first.determinism) | set(second.determinism)
        if key.startswith("trace:")
    )
    for name in traces:
        a = first.determinism.get(name, ())
        b = second.determinism.get(name, ())
        for index in range(max(len(a), len(b))):
            left = repr(a[index]) if index < len(a) else "<missing>"
            right = repr(b[index]) if index < len(b) else "<missing>"
            if left != right:
                return (
                    f"{name} event {index}:\n"
                    f"    first:  {left}\n"
                    f"    second: {right}"
                )
    return "none (the logs or the clock differ)"


def _oracle_problems(outcome: RunOutcome, which: str) -> list[str]:
    problems = [f"{which}: {violation}" for violation in outcome.violations]
    if outcome.error is not None:
        problems.append(f"{which}: did not complete: {outcome.error}")
    return problems


def gate_leg(
    name: str, workload, flags: dict
) -> tuple[list[str], RunOutcome]:
    """Properties 1 and 2 for one leg.  Returns the problems found and
    the default-seed outcome."""
    first = run(workload, flags)
    second = run(workload, flags)
    problems = _oracle_problems(first, f"{name} first run")
    problems += _oracle_problems(second, f"{name} second run")
    if first.replies != second.replies:
        problems.append(f"{name}: replies differ between same-seed runs")
    keys = sorted(set(first.determinism) | set(second.determinism))
    diverged = [
        key for key in keys
        if first.determinism.get(key) != second.determinism.get(key)
    ]
    if diverged:
        problems.append(
            f"{name}: fingerprints differ between same-seed runs: "
            f"{diverged}; first divergent trace event: "
            f"{_first_trace_divergence(first, second)}"
        )
    if workload.sessions == 1:
        return problems, first
    other = run(workload, flags, seed=ALTERNATE_SEED)
    problems += _oracle_problems(other, f"{name} alternate-seed run")
    if other.determinism == first.determinism:
        problems.append(
            f"{name}: alternate seed {ALTERNATE_SEED} reproduced the "
            "default seed's fingerprints exactly — the seed does not "
            "reach the schedule"
        )
    if workload.name not in SCHEDULE_DEPENDENT_ANSWERS and (
        other.state != first.state or other.replies != first.replies
    ):
        problems.append(f"{name}: answers depend on the schedule seed")
    return problems, first


def _pipelined_problems() -> tuple[list[str], int]:
    """The N=8 pipelined leg; returns (problems, artifact count)."""
    from .bench import _run

    def pipelined(**kwargs):
        return _run(
            PIPELINED_SESSIONS, group_commit=True,
            calls_per_session=PIPELINED_CALLS, **kwargs
        )

    problems: list[str] = []
    first = pipelined(pipelined=True)
    second = pipelined(pipelined=True)
    diverged = [
        key for (key, left), (__, right)
        in zip(first.fingerprint, second.fingerprint) if left != right
    ]
    if diverged:
        problems.append(
            f"pipelined fingerprints differ between same-seed runs: {diverged}"
        )
    other = pipelined(pipelined=True, seed=ALTERNATE_SEED)
    for which, outcome in (
        ("first", first), ("second", second), ("alternate-seed", other)
    ):
        for violation in outcome.violations:
            problems.append(f"pipelined {which} run: {violation}")
    if other.fingerprint == first.fingerprint:
        problems.append(
            f"alternate seed {ALTERNATE_SEED} reproduced the pipelined "
            "run's fingerprints exactly — the seed does not reach the "
            "schedule"
        )
    baseline = pipelined()
    if first.forces_per_call > baseline.forces_per_call:
        problems.append(
            "pipelined commit performed MORE forces per call than group "
            f"commit ({first.forces_per_call:.3f} > "
            f"{baseline.forces_per_call:.3f})"
        )
    return problems, len(first.fingerprint)


def run_determinism_check() -> int:
    legs = {**PHOENIX_LEGS, **EXPLORE_WORKLOADS}
    problems: list[str] = []
    # workload name -> [(leg name, default-seed run)]
    by_workload: dict[str, list] = {}
    artifacts = 0
    for name, (workload, flags) in legs.items():
        leg_problems, first = gate_leg(name, workload, flags)
        problems += leg_problems
        artifacts += len(first.determinism)
        by_workload.setdefault(workload.name, []).append((name, first))
        sharded = sorted(key for key in first.determinism if "@" in key)
        if bool(sharded) != bool(flags.get("sharded_logging")):
            problems.append(
                f"{name}: per-shard streams {sharded} do not match its "
                "sharded_logging flag"
            )

    for workload_name, runs in by_workload.items():
        if workload_name in SCHEDULE_DEPENDENT_ANSWERS:
            continue
        base_name, base = runs[0]
        for name, outcome in runs[1:]:
            if outcome.replies != base.replies:
                problems.append(f"{name}: replies differ from {base_name}'s")
            if outcome.state != base.state:
                problems.append(f"{name}: state differs from {base_name}'s")

    pipelined_problems, pipelined_artifacts = _pipelined_problems()
    problems.extend(pipelined_problems)

    if problems:
        print("concurrency determinism check: FAIL")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        "concurrency determinism check: PASS "
        f"({len(legs)} legs of {len(by_workload)} workloads, {artifacts} "
        "artifacts identical across two same-seed runs; every leg "
        "of a schedule-independent workload gives its first leg's "
        f"replies and state; alternate seed {ALTERNATE_SEED} interleaves "
        "every multi-session leg differently and stays conformant; "
        f"pipelined commit at N={PIPELINED_SESSIONS} "
        f"byte-identical across {pipelined_artifacts} artifacts and "
        "never above the group-commit force budget)"
    )
    return 0
