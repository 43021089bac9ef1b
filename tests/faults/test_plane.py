"""The fault plane: deterministic site counting, specs, torn cuts."""

import pytest

from repro.errors import CrashSignal
from repro.faults.plane import (
    CrashSpec,
    FaultPlane,
    active_plane,
    flush_cut,
    installed,
    site_hit,
)


class TestCrashSpec:
    @pytest.mark.parametrize(
        "spec",
        [
            CrashSpec("log.force.before:p1", 3),
            CrashSpec("log.flush:alpha-p1", 2, cut=9),
            CrashSpec("recovery.pass2:desk", 1),
        ],
    )
    def test_render_parse_roundtrip(self, spec):
        assert CrashSpec.parse(spec.render()) == spec

    def test_site_names_with_colons_and_dashes_survive(self):
        spec = CrashSpec.parse("log.flush:alpha-sweep-driver@6+865B")
        assert spec == CrashSpec("log.flush:alpha-sweep-driver", 6, 865)

    def test_parse_rejects_missing_occurrence(self):
        with pytest.raises(ValueError):
            CrashSpec.parse("log.force.before:p1")

    def test_parse_rejects_bad_cut_suffix(self):
        with pytest.raises(ValueError):
            CrashSpec.parse("log.flush:p1@2+9")


class TestRecordMode:
    def test_journals_every_hit_with_occurrence(self):
        plane = FaultPlane(record=True)
        plane.hit("a")
        plane.hit("b")
        plane.hit("a")
        assert [(h.site, h.occurrence) for h in plane.journal] == [
            ("a", 1),
            ("b", 1),
            ("a", 2),
        ]

    def test_flush_hits_record_write_size(self):
        plane = FaultPlane(record=True)
        assert plane.flush_cut("log.flush:p", 100) is None
        (hit,) = plane.journal
        assert hit.nbytes == 100


class TestArmedMode:
    def test_fires_at_the_exact_occurrence(self):
        plane = FaultPlane(specs=(CrashSpec("a", 3),))
        plane.hit("a")
        plane.hit("a")
        plane.hit("b")
        with pytest.raises(CrashSignal):
            plane.hit("a")
        assert plane.exhausted
        assert [s.render() for s in plane.fired] == ["a@3"]

    def test_specs_fire_in_order(self):
        """A two-spec plan (crash-during-recovery) fires in order even
        though any pending spec may match: the composite's second spec
        names an occurrence journaled on an ARMED run, after the first
        spec fired, so the count of its site cannot reach it earlier —
        a crossing before then only advances that count."""
        plane = FaultPlane(
            specs=(CrashSpec("a", 2), CrashSpec("recovery.pass2:p", 2))
        )
        plane.hit("recovery.pass2:p")  # occurrence 1: spec 0 is next
        plane.hit("a")
        with pytest.raises(CrashSignal):
            plane.hit("a")
        assert not plane.exhausted
        with pytest.raises(CrashSignal):
            plane.hit("recovery.pass2:p")  # occurrence 2 matches now
        assert plane.exhausted
        assert [s.render() for s in plane.fired] == [
            "a@2",
            "recovery.pass2:p@2",
        ]

    def test_torn_cut_is_clamped_inside_the_write(self):
        plane = FaultPlane(specs=(CrashSpec("f", 1, cut=999),))
        assert plane.flush_cut("f", 10) == 9  # at most nbytes - 1

    def test_plain_spec_ignores_flush_sites_and_vice_versa(self):
        plane = FaultPlane(
            specs=(CrashSpec("x", 1), CrashSpec("f", 2, cut=1))
        )
        assert plane.flush_cut("f", 10) is None  # occurrence 1: unarmed
        with pytest.raises(CrashSignal):
            plane.hit("x")
        assert plane.flush_cut("f", 10) == 1  # occurrence 2
        assert plane.exhausted


class TestInstallation:
    def test_hooks_are_noops_without_a_plane(self):
        assert active_plane() is None
        site_hit("anything")  # must not raise
        assert flush_cut("anything", 50) is None

    def test_installed_scopes_the_plane(self):
        plane = FaultPlane(record=True)
        with installed(plane):
            assert active_plane() is plane
            site_hit("inside")
        assert active_plane() is None
        assert [h.site for h in plane.journal] == ["inside"]

    def test_uninstalls_even_when_the_body_crashes(self):
        plane = FaultPlane(specs=(CrashSpec("boom", 1),))
        with pytest.raises(CrashSignal):
            with installed(plane):
                site_hit("boom")
        assert active_plane() is None
