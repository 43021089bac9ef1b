"""The sweep end to end: discovery coverage and the smoke subset.

The full sweep (every point of every workload) runs
nightly in CI and via ``make sweep``; setting ``REPRO_SWEEP_FULL=1``
runs it here too.  The tier-1 path keeps a sampled smoke subset that
still crosses the durability and message-pipeline site families.
"""

import os

import pytest

from repro.faults import PIPELINE_POINTS
from repro.faults.plan import CrashPoint
from repro.faults.sweep import discover_plan, run_point, run_sweep
from repro.faults.workloads import WORKLOADS


class TestDiscovery:
    @pytest.fixture(scope="class")
    def plan(self):
        plan, __ = discover_plan(message_stride=4)
        return plan

    def test_plan_covers_at_least_fifty_points(self, plan):
        ids = [point.point_id for point in plan]
        assert len(ids) == len(set(ids))  # distinct
        assert len(ids) >= 50

    def test_every_workload_contributes(self, plan):
        for name in WORKLOADS:
            assert plan.for_workload(name), name

    def test_site_families_are_represented(self, plan):
        families = {
            point.specs[0].site.split(":")[0] for point in plan
        } | {
            point.specs[-1].site.split(":")[0]
            for point in plan
            if len(point.specs) > 1
        }
        assert {
            "log.force.before",  # force boundaries, both edges
            "log.force.after",
            "log.flush",  # torn stable writes
            "alg3.pre_reply",  # the Algorithm-3 window
            "checkpoint.begin",  # checkpoint boundaries
            "checkpoint.publish.before_truncate",
            "qforce.before",  # the queued substrate's durability edges
            "recovery.pass2",  # crash-during-recovery composites
            # incremental recovery (internals.md section 12): crash at
            # admission, mid-lazy-replay, and inside a drain worker
            "recovery.admit_early",
            "recovery.lazy_replay.before",
            "recovery.lazy_replay.after",
            "recovery.drain_worker",
            # Figure 2's ten message-pipeline points, the silent
            # after-send kill (reply.after_send) included
            *PIPELINE_POINTS,
        } <= families

    @pytest.mark.parametrize(
        "workload",
        [
            "bookstore",
            "bookstore-concurrent",
            "bookstore-concurrent-pipelined",
            "bookstore-sharded",
            "orderflow",
        ],
    )
    def test_composites_reach_the_end_of_recovery(self, plan, workload):
        """An eager restart crosses one lazy-replay site per component;
        the per-base cap still keeps a crash after the drain and after
        the final force, because every distinct recovery site is taken
        before any repeat."""
        sites = {
            point.specs[-1].site.split(":")[0]
            for point in plan.for_workload(workload)
            if len(point.specs) > 1
        }
        assert {"recovery.drained", "recovery.done"} <= sites

    def test_golden_journals_are_deterministic(self):
        first, __ = discover_plan(
            workloads=["bookstore"], composites=False
        )
        second, __ = discover_plan(
            workloads=["bookstore"], composites=False
        )
        assert [p.point_id for p in first] == [p.point_id for p in second]


class TestSmokeSweep:
    def test_sampled_sweep_passes_every_point(self):
        result = run_sweep(message_stride=8, stride=5)
        assert len(result.results) >= 50
        assert any(
            r.point_id.split(":")[1] in PIPELINE_POINTS for r in result.results
        )
        assert result.ok, "\n".join(
            f"{r.point_id}: {'; '.join(r.failures)}" for r in result.failed
        )

    def test_silent_after_send_kill_passes_the_oracle(self):
        """Figure 2's third failure point: the server dies after its
        reply left, and the caller never sees the crash."""
        point = CrashPoint.parse("bookstore:reply.after_send:bookstore-app@1")
        golden = WORKLOADS["bookstore"]()
        outcome = WORKLOADS["bookstore"](specs=point.specs)
        assert outcome.fired == ["reply.after_send:bookstore-app@1"]
        result = run_point(point, golden)
        assert result.ok, "\n".join(result.failures)

    def test_a_stale_spec_is_reported_not_ignored(self):
        """A point whose site is never crossed must fail loudly (a stale
        plan means the sweep is no longer testing what it claims)."""
        point = CrashPoint.parse("bookstore:log.force.before:no-such@999")
        golden = WORKLOADS["bookstore"]()
        result = run_point(point, golden)
        assert not result.ok
        assert any("specs fired" in f for f in result.failures)


# ----------------------------------------------------------------------
# tier-2: the FULL plan, one pytest per point (nightly / make sweep).
# Discovery happens at collection time, so it only runs when the env
# gate is set; without it this collects as a single skipped entry.
# ----------------------------------------------------------------------
_FULL_GOLDEN: dict = {}


def _full_plan():
    if not os.environ.get("REPRO_SWEEP_FULL"):
        return []
    plan, golden = discover_plan()
    _FULL_GOLDEN.update(golden)
    return list(plan)


@pytest.mark.parametrize("point", _full_plan(), ids=lambda p: p.point_id)
def test_full_sweep_point(point):
    """REPRO_SWEEP_FULL=1 parametrizes this over every discovered crash
    point — the pytest-shaped equivalent of ``repro-faults sweep``."""
    result = run_point(point, _FULL_GOLDEN[point.workload])
    assert result.ok, "\n".join(result.failures)
