"""Crash plans: point derivation, IDs, smoke sampling."""

import pytest

from repro.faults.plan import (
    HEADER_CUTS,
    CrashPlan,
    CrashPoint,
    CrashSpec,
    composite_points,
    points_from_journal,
    torn_cuts,
)
from repro.faults.plane import SiteHit


class TestPointIds:
    @pytest.mark.parametrize(
        "point_id",
        [
            "bookstore:log.force.before:bookstore-app@3",
            "bookstore:log.flush:alpha-bookstore-app@2+9B",
            "orderflow:log.force.before:alpha-orderflow-desk@4"
            "/recovery.pass1:orderflow-desk@1",
        ],
    )
    def test_parse_render_roundtrip(self, point_id):
        assert CrashPoint.parse(point_id).point_id == point_id

    def test_parse_rejects_bare_workload(self):
        with pytest.raises(ValueError):
            CrashPoint.parse("bookstore")


class TestTornCuts:
    def test_buckets_cover_header_payload_and_tail(self):
        cuts = torn_cuts(100)
        assert set(HEADER_CUTS) <= set(cuts)
        assert 50 in cuts  # mid-payload
        assert 99 in cuts  # one byte short
        assert all(1 <= cut <= 99 for cut in cuts)

    def test_tiny_writes_produce_no_cuts(self):
        assert torn_cuts(1) == []
        assert torn_cuts(0) == []

    def test_small_write_cuts_stay_inside(self):
        assert torn_cuts(4) == [1, 2, 3]


class TestPointsFromJournal:
    JOURNAL = [
        SiteHit("log.force.before:p", 1),
        SiteHit("log.flush:alpha-p", 1, nbytes=40),
        SiteHit("log.force.after:p", 1),
        SiteHit("log.flush:alpha-p", 2, nbytes=40),
    ]

    def test_plain_hits_become_one_point_each(self):
        points = points_from_journal("w", self.JOURNAL)
        plain = [p for p in points if p.specs[0].cut is None]
        assert [p.point_id for p in plain] == [
            "w:log.force.before:p@1",
            "w:log.force.after:p@1",
        ]

    def test_flush_hits_become_torn_points_per_cut(self):
        points = points_from_journal("w", self.JOURNAL)
        torn = [p for p in points if p.specs[0].cut is not None]
        expected_per_flush = len(torn_cuts(40))
        assert len(torn) == 2 * expected_per_flush
        assert all(1 <= p.specs[0].cut < 40 for p in torn)

    def test_message_stride_thins_flushes_but_keeps_plain_points(self):
        points = points_from_journal("w", self.JOURNAL, message_stride=2)
        plain = [p for p in points if p.specs[0].cut is None]
        torn = [p for p in points if p.specs[0].cut is not None]
        assert len(plain) == 2  # never sampled away
        assert {p.specs[0].occurrence for p in torn} == {1}  # 2nd skipped

    def test_message_stride_counts_pipeline_crossings_per_site(self):
        journal = [
            SiteHit("method.before:p", 1),
            SiteHit("method.before:q", 1),
            SiteHit("method.before:p", 2),
            SiteHit("reply.after_send:p", 1),
            SiteHit("method.before:p", 3),
            SiteHit("log.force.before:p", 1),
            SiteHit("log.force.before:p", 2),
        ]
        points = points_from_journal("w", journal, message_stride=2)
        assert [p.point_id for p in points] == [
            "w:method.before:p@1",  # every site keeps its first crossing
            "w:method.before:q@1",
            "w:reply.after_send:p@1",
            "w:method.before:p@3",
            "w:log.force.before:p@1",  # force boundaries are never thinned
            "w:log.force.before:p@2",
        ]


class TestCompositePoints:
    def test_recovery_hits_become_second_triggers(self):
        base = CrashSpec("log.force.before:p", 5)
        armed = [
            SiteHit("log.flush:alpha-p", 3, nbytes=10),
            SiteHit("recovery.start:p", 1),
            SiteHit("recovery.pass2:p", 1),
        ]
        points = composite_points("w", base, armed)
        assert [p.point_id for p in points] == [
            "w:log.force.before:p@5/recovery.start:p@1",
            "w:log.force.before:p@5/recovery.pass2:p@1",
        ]
        assert all(p.specs[0] == base for p in points)


class TestSampling:
    def test_stride_samples_per_workload(self):
        points = [
            CrashPoint(w, (CrashSpec("s", i),))
            for w in ("a", "b")
            for i in range(1, 7)
        ]
        sampled = CrashPlan(points).sample(3)
        assert [p.point_id for p in sampled] == [
            "a:s@1",
            "a:s@4",
            "b:s@1",
            "b:s@4",
        ]

    def test_stride_one_is_identity(self):
        points = [CrashPoint("a", (CrashSpec("s", 1),))]
        assert list(CrashPlan(points).sample(1)) == points
