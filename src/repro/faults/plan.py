"""Crash plans: the points a sweep will drive a workload through.

A *crash point* is a workload name plus an ordered sequence of
:class:`~repro.faults.plane.CrashSpec` triggers.  Most points have one
spec; crash-during-recovery points have two — the first crashes the
workload, the second fires at a recovery pass boundary while the first
crash is being repaired.

Points are *discovered*, not hand-listed: a fault-free golden run with a
recording :class:`~repro.faults.plane.FaultPlane` journals every site
crossing, and the plan derives

* one point per plain site hit (force boundaries, the Algorithm-3
  window, checkpoint boundaries, Figure 2's message-pipeline points),
  and
* several torn-write points per stable flush — cuts inside the 10-byte
  frame header (1, 3 and 9 bytes: a bare magic byte, a sliced length
  prefix, one byte short of a full header) plus mid-payload and
  one-byte-short cuts.

Because the simulation is deterministic, the occurrence counts recorded
on the golden run identify the same instants when the workload is
re-executed armed.

Point IDs render as ``workload:site@occurrence`` (torn points append
``+<cut>B``; composite points join specs with ``/``), e.g.::

    bookstore:log.force.before:bookstore-app@3
    bookstore:log.flush:bookstore-app@2+9B
    bookstore:reply.after_send:bookstore-app@5
    orderflow:log.force.before:orderflow-desk@4/recovery.pass1:orderflow-desk@1

and parse back via :meth:`CrashPoint.parse` — that round trip is how a
failing schedule is reproduced from a report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .plane import PIPELINE_POINTS, CrashSpec, SiteHit

#: Torn-write cuts that land *inside* the frame header (magic u16 +
#: length u32 + crc u32 = 10 bytes): fewer bytes than the length prefix
#: needs, and one byte short of a complete header.
HEADER_CUTS = (1, 3, 9)


@dataclass(frozen=True)
class CrashPoint:
    """One schedule of the sweep: crash here, recover, compare."""

    workload: str
    specs: tuple[CrashSpec, ...]

    @property
    def point_id(self) -> str:
        rendered = "/".join(spec.render() for spec in self.specs)
        return f"{self.workload}:{rendered}"

    @classmethod
    def parse(cls, point_id: str) -> "CrashPoint":
        workload, sep, rest = point_id.partition(":")
        if not sep or not rest:
            raise ValueError(f"bad crash point id {point_id!r}")
        specs = tuple(CrashSpec.parse(part) for part in rest.split("/"))
        return cls(workload, specs)


@dataclass
class CrashPlan:
    """An ordered list of crash points (one sweep's worth of work)."""

    points: list[CrashPoint]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def for_workload(self, workload: str) -> list[CrashPoint]:
        return [p for p in self.points if p.workload == workload]

    def sample(self, stride: int) -> "CrashPlan":
        """Every ``stride``-th point (the smoke subset), preserving
        workload interleaving by sampling per workload."""
        if stride <= 1:
            return CrashPlan(list(self.points))
        sampled: list[CrashPoint] = []
        by_workload: dict[str, int] = {}
        for point in self.points:
            index = by_workload.get(point.workload, 0)
            by_workload[point.workload] = index + 1
            if index % stride == 0:
                sampled.append(point)
        return CrashPlan(sampled)


def torn_cuts(nbytes: int, header_cuts: tuple[int, ...] = HEADER_CUTS) -> list[int]:
    """The cut buckets for one flush of ``nbytes``: header slices plus
    mid-payload and one-byte-short tears."""
    if nbytes <= 1:
        return []
    cuts = {cut for cut in header_cuts if cut < nbytes}
    cuts.add(nbytes // 2)
    cuts.add(nbytes - 1)
    return sorted(cut for cut in cuts if 1 <= cut <= nbytes - 1)


def points_from_journal(
    workload: str,
    journal: list[SiteHit],
    header_cuts: tuple[int, ...] = HEADER_CUTS,
    message_stride: int = 1,
) -> list[CrashPoint]:
    """Derive single-spec crash points from a golden run's journal.

    Stable flushes and pipeline-site crossings recur once per message
    and dominate the point count.  ``message_stride`` keeps one of those
    only when ``(occurrence - 1) % message_stride == 0`` — counted per
    site, so every site keeps its first crossing — and trades coverage
    for sweep time without touching the force, checkpoint and recovery
    boundaries, which are always kept.
    """
    points: list[CrashPoint] = []
    for hit in journal:
        per_message = (
            hit.nbytes is not None
            or hit.site.split(":", 1)[0] in PIPELINE_POINTS
        )
        if per_message and (hit.occurrence - 1) % message_stride:
            continue
        if hit.nbytes is None:
            points.append(
                CrashPoint(workload, (CrashSpec(hit.site, hit.occurrence),))
            )
            continue
        for cut in torn_cuts(hit.nbytes, header_cuts):
            points.append(
                CrashPoint(
                    workload,
                    (CrashSpec(hit.site, hit.occurrence, cut),),
                )
            )
    return points


def composite_points(
    workload: str,
    base: CrashSpec,
    armed_journal: list[SiteHit],
) -> list[CrashPoint]:
    """Crash-during-recovery points: ``base`` crashes the workload, and
    each ``recovery.*`` hit journaled while that crash was being
    repaired becomes a second trigger."""
    points: list[CrashPoint] = []
    for hit in armed_journal:
        if hit.site.startswith("recovery."):
            points.append(
                CrashPoint(
                    workload,
                    (base, CrashSpec(hit.site, hit.occurrence)),
                )
            )
    return points
