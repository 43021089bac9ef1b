"""The sweep: enumerate crash points, run each, compare to golden.

``discover_plan`` runs each workload fault-free with a recording plane
and derives the point list (:mod:`repro.faults.plan`), including
crash-during-recovery composites: for a couple of representative base
crashes per Phoenix workload, a secondary armed-and-recording run
journals which ``recovery.*`` pass boundaries the repair actually
crosses, and each of those becomes a two-spec point.

``run_point`` re-executes the point's workload armed and asserts the
full oracle:

1. every armed spec fired (the plan is not stale),
2. the workload completed (drivers retried through the crash),
3. the TRC101-105 trace/log invariants hold on every process,
4. replies are identical to the golden run (exactly-once delivery),
5. component state is byte-identical to the golden run,
6. crash-everything-and-recover-again yields that same state
   (recover-twice idempotency).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .plan import CrashPlan, CrashPoint, composite_points, points_from_journal
from .plane import CrashSpec
from .workloads import WORKLOADS, RunOutcome

#: Cap on crash-during-recovery points derived per base crash.
MAX_COMPOSITES_PER_BASE = 8


@dataclass
class PointResult:
    point_id: str
    ok: bool
    failures: list[str] = field(default_factory=list)
    retries: int = 0


@dataclass
class SweepResult:
    plan: CrashPlan
    golden: dict[str, RunOutcome]
    results: list[PointResult]

    @property
    def failed(self) -> list[PointResult]:
        return [result for result in self.results if not result.ok]

    @property
    def ok(self) -> bool:
        return not self.failed


def _golden_runs(workloads: list[str]) -> dict[str, RunOutcome]:
    return {name: WORKLOADS[name](record=True) for name in workloads}


def _composite_bases(points: list[CrashPoint]) -> list[CrashSpec]:
    """Pick representative base crashes for crash-during-recovery
    composites: a mid-run force boundary and a mid-run torn write."""
    forces = [
        point.specs[0]
        for point in points
        if point.specs[0].cut is None
        and point.specs[0].site.startswith("log.force.before:")
    ]
    tears = [point.specs[0] for point in points if point.specs[0].cut is not None]
    bases: list[CrashSpec] = []
    if forces:
        bases.append(forces[len(forces) // 2])
    if tears:
        bases.append(tears[len(tears) // 2])
    return bases


def _cap_composites(points: list[CrashPoint]) -> list[CrashPoint]:
    """At most ``MAX_COMPOSITES_PER_BASE`` of one base crash's
    composites, in journal order: the first hit of every distinct
    recovery site is taken before any repeat, so a drain that crosses
    one site per component never crowds out the boundaries after it."""
    firsts: list[int] = []
    repeats: list[int] = []
    seen: set[str] = set()
    for index, point in enumerate(points):
        site = point.specs[-1].site
        (repeats if site in seen else firsts).append(index)
        seen.add(site)
    keep = sorted((firsts + repeats)[:MAX_COMPOSITES_PER_BASE])
    return [points[index] for index in keep]


def discover_plan(
    workloads: list[str] | None = None,
    message_stride: int = 1,
    composites: bool = True,
    golden: dict[str, RunOutcome] | None = None,
) -> tuple[CrashPlan, dict[str, RunOutcome]]:
    """Golden-run the workloads and enumerate their crash points
    (``message_stride``: see :func:`~repro.faults.plan.points_from_journal`)."""
    names = list(workloads or WORKLOADS)
    golden = golden or _golden_runs(names)
    points: list[CrashPoint] = []
    for name in names:
        base_points = points_from_journal(
            name, golden[name].journal, message_stride=message_stride
        )
        points.extend(base_points)
        if not composites:
            continue
        for base in _composite_bases(base_points):
            # Secondary discovery: run armed with the base crash and
            # record which recovery pass boundaries the repair crosses.
            armed = WORKLOADS[name](specs=(base,), record=True)
            points.extend(
                _cap_composites(composite_points(name, base, armed.journal))
            )
    return CrashPlan(points), golden


def run_point(point: CrashPoint, golden: RunOutcome) -> PointResult:
    failures: list[str] = []
    try:
        outcome = WORKLOADS[point.workload](specs=point.specs)
    except BaseException as exc:  # CrashSignal escapes are failures too
        return PointResult(
            point.point_id,
            ok=False,
            failures=[f"workload did not complete: {type(exc).__name__}: {exc}"],
        )
    expected = [spec.render() for spec in point.specs]
    if outcome.fired != expected:
        failures.append(
            f"specs fired {outcome.fired!r}, expected {expected!r} "
            "(stale plan or lost determinism)"
        )
    failures.extend(outcome.violations)
    if outcome.replies != golden.replies:
        failures.append(
            "replies diverged from golden run (exactly-once broken): "
            f"{_first_diff(outcome.replies, golden.replies)}"
        )
    if outcome.state != golden.state:
        failures.append(
            "state diverged from golden run: "
            f"{_dict_diff(outcome.state, golden.state)}"
        )
    if outcome.state_after_recover != golden.state:
        failures.append(
            "recover-twice state diverged: "
            f"{_dict_diff(outcome.state_after_recover, golden.state)}"
        )
    return PointResult(
        point.point_id,
        ok=not failures,
        failures=failures,
        retries=outcome.retries,
    )


def _first_diff(got: list, want: list) -> str:
    if len(got) != len(want):
        return f"{len(got)} replies vs {len(want)}"
    for index, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"step {index}: {g!r} != {w!r}"
    return "?"


def _dict_diff(got: dict, want: dict) -> str:
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    changed = sorted(k for k in set(got) & set(want) if got[k] != want[k])
    parts = []
    if missing:
        parts.append(f"missing {missing}")
    if extra:
        parts.append(f"extra {extra}")
    if changed:
        parts.append(f"changed {changed}")
    return "; ".join(parts) or "?"


def run_sweep(
    workloads: list[str] | None = None,
    message_stride: int = 1,
    composites: bool = True,
    stride: int = 1,
    progress=None,
    torn_stride: int | None = None,
) -> SweepResult:
    """Discover the plan and run every (stride-sampled) point.

    ``torn_stride`` is ``message_stride``'s former name, still passed by
    the benchmark's ``perf/child.py``."""
    plan, golden = discover_plan(
        workloads,
        message_stride=message_stride if torn_stride is None else torn_stride,
        composites=composites,
    )
    sampled = plan.sample(stride)
    results: list[PointResult] = []
    for index, point in enumerate(sampled):
        result = run_point(point, golden[point.workload])
        results.append(result)
        if progress is not None:
            progress(index, len(sampled), result)
    return SweepResult(plan=sampled, golden=golden, results=results)
