"""TRC106: observed forces per call span stay within the static bound.

The cost model exports, per (process, entry method), a worst-case
forces-per-event ratio over the statically reachable call edges; the
trace checker replays every recorded ProtocolTrace against

    observed <= entry_bound + cold + ratio * max(0, N - 2 - 2*cold)

(docs/internals.md section 10).  These tests pin both directions: every
real workload — all optimization levels, deployment shapes, and a
crash schedule — stays inside the bound, and a deliberately
over-forcing policy mutation trips it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.infer import build_cost_model
from repro.analysis.model import ProgramModel, iter_py_files
from repro.analysis.trace_check import check_runtime_force_bounds
from repro.apps.bookstore import BookBuyer, OptimizationLevel, deploy_bookstore
from repro.apps.orderflow import deploy_orderflow
from repro.common import message_actions

APPS = Path(__file__).resolve().parents[2] / "src" / "repro" / "apps"


@pytest.fixture(scope="module")
def bounds():
    model = ProgramModel.from_paths(list(iter_py_files([APPS])))
    return build_cost_model(model).force_bounds()


def assert_within_bounds(runtime, bounds):
    problems = check_runtime_force_bounds(runtime, bounds)
    assert problems == [], "\n".join(
        f"{process}: {violation.render()}"
        for process, violation in problems
    )


class TestWorkloadsStayWithinBounds:
    @pytest.mark.parametrize(
        "level", list(OptimizationLevel), ids=[l.value for l in OptimizationLevel]
    )
    def test_bookstore_all_levels(self, bounds, level):
        app = deploy_bookstore(level=level)
        BookBuyer(app).run_session(iterations=2)
        assert_within_bounds(app.runtime, bounds)

    @pytest.mark.parametrize("split", [False, True], ids=["cohosted", "split"])
    @pytest.mark.parametrize("multicall", [False, True], ids=["plain", "multicall"])
    def test_orderflow_shapes(self, bounds, split, multicall):
        app = deploy_orderflow(multicall=multicall, split_backend=split)
        app.desk.place_order("ada", "widget", 2)
        app.desk.place_order("bob", "gadget", 1)
        app.desk.order_history("ada")
        app.desk.rejected_count()
        order = app.desk.place_order("ada", "widget", 1)
        app.desk.cancel_order("ada", order["order_id"])
        assert_within_bounds(app.runtime, bounds)

    def test_baseline_orderflow_is_vacuously_bounded(self, bounds):
        # Algorithm 1 forces every message; the bound degrades to
        # N-per-span (ratio 1, no cold allowance) and must still hold
        from repro.core import PhoenixRuntime, RuntimeConfig

        runtime = PhoenixRuntime(config=RuntimeConfig.baseline())
        app = deploy_orderflow(runtime=runtime)
        app.desk.place_order("ada", "widget", 1)
        assert_within_bounds(app.runtime, bounds)

    def test_crash_schedule_spans_discarded_not_flagged(self, bounds):
        # interrupted spans carry partial force sequences; TRC106 must
        # judge only spans that closed cleanly
        app = deploy_orderflow()
        app.desk.place_order("ada", "widget", 1)
        app.runtime.injector.arm("orderflow-backend", "reply.before_send")
        app.desk.place_order("ada", "widget", 2)
        app.runtime.crash_process(app.desk_process)
        app.desk.place_order("ada", "widget", 3)
        assert_within_bounds(app.runtime, bounds)


class TestOverForcingPolicyTrips:
    @pytest.mark.no_conformance_check
    def test_disabling_algorithm5_routing_violates_trc106(
        self, bounds, monkeypatch
    ):
        # the mutation makes the table treat read-only peers as
        # persistent (every read-only cell becomes its row's "other"
        # cell) — every individual force is still TRC101-legal, but the
        # span totals exceed the static ratio-0 bounds
        monkeypatch.setattr(message_actions, "TABLE", tuple(
            row[:message_actions.READ_ONLY]
            + (row[message_actions.OTHER],)
            + row[message_actions.READ_ONLY + 1:]
            for row in message_actions.TABLE
        ))
        app = deploy_bookstore(level=OptimizationLevel.SPECIALIZED)
        app.price_grabber.search("recovery")
        problems = check_runtime_force_bounds(app.runtime, bounds)
        assert problems, "over-forcing policy must trip TRC106"
        assert all(
            violation.invariant == "TRC106"
            for __, violation in problems
        )
        rendered = problems[0][1].render()
        assert "exceeds the static bound" in rendered
