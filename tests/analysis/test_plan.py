"""The static shard-placement planner.

Covers the whole pipeline: graph construction from the deploy wiring,
deterministic partitioning, the canonical ``LogPlan`` artifact
(byte-identical across builds, pinned against the committed
``plans/apps.logplan.json``, no column without a reader), the
PHX015/PHX016 diagnostics, the TRC109 trace invariant in both
directions (golden workloads pass; a committed span budget tampered
tighter trips it with a replayable trace reference), and the
``repro-analyze plan`` command line.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.analysis.model import ProgramModel, iter_py_files
from repro.analysis.plan import (
    PlanConfig,
    build_graph,
    build_plan,
    check_runtime_plan,
    drift_findings,
    load_plan,
    plan_findings,
)
from repro.apps.bookstore import (
    BookBuyer,
    OptimizationLevel,
    deploy_bookstore,
)
from repro.apps.orderflow import deploy_orderflow
from repro.log.sharding import ShardRouter

REPO = Path(__file__).resolve().parents[2]
APPS = REPO / "src" / "repro" / "apps"
PLAN_PATH = REPO / "plans" / "apps.logplan.json"


@pytest.fixture(scope="module")
def model():
    return ProgramModel.from_paths(list(iter_py_files([APPS])))


@pytest.fixture(scope="module")
def plan(model):
    return build_plan(model, PlanConfig())


@pytest.fixture(scope="module")
def committed():
    return load_plan(PLAN_PATH)


def run_orderflow():
    app = deploy_orderflow()
    app.desk.place_order("ada", "widget", 2)
    app.desk.place_order("bob", "gadget", 1)
    app.desk.order_history("ada")
    return app


class TestDeterminism:
    def test_two_independent_builds_are_byte_identical(self, plan):
        other_model = ProgramModel.from_paths(list(iter_py_files([APPS])))
        other = build_plan(other_model, PlanConfig())
        assert other.dumps() == plan.dumps()

    def test_committed_artifact_matches_the_wiring(self, plan, committed):
        # the byte-identity `repro-analyze plan --check` enforces in CI
        assert plan.dumps() == PLAN_PATH.read_text()
        assert committed.config.to_dict() == PlanConfig().to_dict()

    def test_serialization_is_canonical(self, plan):
        text = plan.dumps()
        assert text.endswith("\n")
        assert text == json.dumps(
            json.loads(text), sort_keys=True, indent=2
        ) + "\n"


class _Recording(dict):
    """A plan entry that notes every key read from it in ``seen``."""

    def __init__(self, data: dict, seen: set):
        super().__init__(data)
        self.seen = seen

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.seen.add(key)
        return super().get(key, default)


class TestSchema:
    def test_every_committed_column_has_a_reader(self, plan):
        """The plan says what the runtime runs: each column of the
        components / shards / span_budgets tables is read by the shard
        router (log/sharding.py), the planner lints (plan/lints.py) or
        the TRC109 budget check.  An unread column fails here."""
        committed = load_plan(PLAN_PATH)
        columns, seen = {}, {}
        for section in ("components", "shards", "span_budgets"):
            entries = committed.payload[section]
            columns[section] = set().union(*entries)
            seen[section] = set()
            committed.payload[section] = [
                _Recording(entry, seen[section]) for entry in entries
            ]
        for shard in plan.shards:
            for process in shard["processes"]:
                ShardRouter(committed, process)
        plan_findings(committed)
        drift_findings(plan, committed, str(PLAN_PATH))
        # findings anchor at the component's path:line — drift against
        # a plan that lost a component reads them
        stale = load_plan(PLAN_PATH)
        del stale.components[0]
        assert drift_findings(committed, stale, str(PLAN_PATH))
        check_runtime_plan(run_orderflow().runtime, committed)
        assert seen == columns


class TestGraph:
    def test_every_deployed_component_is_a_node(self, model):
        graph, __ = build_graph(model)
        for name in ("OrderDesk", "Inventory", "CustomerLedger",
                     "Bookstore", "BookSeller", "ShoppingBasket"):
            assert name in graph.nodes
        # client classes (BookBuyer) are not deployed components
        assert "BookBuyer" not in graph.nodes

    def test_loop_weight_scales_loop_edges(self, model):
        light, __ = build_graph(model, loop_weight=1)
        heavy, __ = build_graph(model, loop_weight=8)
        looped = [
            key for key, edge in heavy.edges.items()
            if edge.calls > light.edges[key].calls
        ]
        assert looped, "the apps contain loop-nested remote calls"
        for key in looped:
            # an edge mixes loop and straight-line call sites: with
            # weight w it prices straight + w*looped, so the delta
            # between weights 8 and 1 is exactly 7x the looped calls
            delta = heavy.edges[key].calls - light.edges[key].calls
            assert delta > 0 and delta % 7 == 0

    def test_subordinate_affinity_edges_are_never_cut(self, plan):
        by_name = {e["name"]: e for e in plan.components}
        for edge in plan.edges:
            if edge["subordinate"]:
                assert not edge["cross_shard"], (
                    f"subordinate edge {edge['src']}->{edge['dst']} "
                    "crosses a shard"
                )
                assert (
                    by_name[edge["src"]]["shard"]
                    == by_name[edge["dst"]]["shard"]
                )


class TestPartition:
    def test_default_partition_shapes(self, plan):
        ids = {shard["id"] for shard in plan.shards}
        assert ids == {
            "bookstore-app",
            "orderflow-backend",
            "orderflow-backend+orderflow-ledger",
            "orderflow-desk",
        }
        members = [
            name
            for shard in plan.shards
            for name in shard["components"]
        ]
        assert sorted(members) == sorted(
            e["name"] for e in plan.components
        )
        assert len(members) == len(set(members))

    def test_shard_of_component_is_consistent(self, plan):
        placement = {
            name: shard["id"]
            for shard in plan.shards
            for name in shard["components"]
        }
        for entry in plan.components:
            assert entry["shard"] == placement[entry["name"]]

    def test_requested_shard_count_splits_heavy_groups(self, model):
        six = build_plan(model, PlanConfig(shards=6))
        assert len(six.shards) == 6
        # min-cut keeps the hot (weight-8) basket edges internal: the
        # only newly cuttable cross-shard edge is zero-weight
        for edge in six.edges:
            if edge["cross_shard"] and edge["cuttable"]:
                assert edge["weight"] == 0.0

    def test_split_is_deterministic(self, model):
        first = build_plan(model, PlanConfig(shards=8))
        second = build_plan(model, PlanConfig(shards=8))
        assert first.dumps() == second.dumps()


class TestPHX015:
    def test_hot_cut_edge_fires_above_threshold(self, model):
        plan = build_plan(
            model, PlanConfig(shards=8, cut_threshold=4.0)
        )
        findings = [
            f for f in plan_findings(plan) if f.rule_id == "PHX015"
        ]
        assert len(findings) == 2
        messages = " ".join(f.message for f in findings)
        assert "BasketManagerPersistent -> ShoppingBasketPersistent" in (
            messages
        )
        assert "prices 8 forces per sweep" in messages

    def test_default_plan_is_clean(self, plan):
        assert plan_findings(plan) == []


class TestPHX016:
    def test_strategy_and_shard_drift(self, plan):
        # a plan committed before strategy assignment was cut carries a
        # `strategy` column: byte identity's business, not a drift
        # finding — placement and force load are
        tampered = load_plan(PLAN_PATH)
        entry = tampered.component("OrderDesk")
        entry["strategy"] = "state"
        entry["shard"] = "elsewhere"
        tampered.shards[0]["force_load"] += 2.0
        findings = drift_findings(plan, tampered, str(PLAN_PATH))
        assert [f.rule_id for f in findings] == ["PHX016", "PHX016"]
        messages = " ".join(f.message for f in findings)
        assert "plan drift for OrderDesk" in messages
        assert "records 'elsewhere'" in messages
        assert f"plan drift for shard {tampered.shards[0]['id']}" in (
            messages
        )
        assert "force load" in messages

    def test_component_set_drift(self, plan):
        tampered = load_plan(PLAN_PATH)
        removed = tampered.components.pop(0)
        tampered.components.append({
            **removed, "name": "GhostComponent",
        })
        findings = drift_findings(plan, tampered, str(PLAN_PATH))
        messages = " ".join(f.message for f in findings)
        assert f"component {removed['name']} is deployed" in messages
        assert "component GhostComponent is in the committed plan" in (
            messages
        )

    def test_stale_shard_reference_after_rename(self, plan):
        """A deploy rename that only desyncs a shard's membership list
        (the per-component entries all look consistent) must still be a
        hard drift finding — the sharded router would otherwise
        silently route nothing to the stale name's stream."""
        tampered = load_plan(PLAN_PATH)
        shard = tampered.shards[0]
        renamed = shard["components"][0]
        shard["components"][0] = f"{renamed}Legacy"
        # Keep the component table consistent with the wiring: only the
        # shard list carries the stale name.
        findings = drift_findings(plan, tampered, str(PLAN_PATH))
        assert [f.rule_id for f in findings] == ["PHX016"]
        message = findings[0].message
        assert f"shard {shard['id']}" in message
        assert f"component {renamed}Legacy" in message
        assert "silently route nothing" in message
        assert "Fix: regenerate the plan (make plan-write)" in message
        assert findings[0].path == str(PLAN_PATH)

    def test_fresh_plan_has_no_drift(self, plan, committed):
        assert drift_findings(plan, committed, str(PLAN_PATH)) == []


class TestTRC109Golden:
    @pytest.mark.parametrize(
        "level",
        list(OptimizationLevel),
        ids=[l.value for l in OptimizationLevel],
    )
    def test_bookstore_all_levels(self, committed, level):
        app = deploy_bookstore(level=level)
        BookBuyer(app).run_session(iterations=2)
        assert check_runtime_plan(app.runtime, committed) == []

    @pytest.mark.parametrize(
        "split", [False, True], ids=["cohosted", "split"]
    )
    def test_orderflow(self, committed, split):
        app = deploy_orderflow(split_backend=split)
        app.desk.place_order("ada", "widget", 2)
        app.desk.place_order("bob", "gadget", 1)
        app.desk.order_history("ada")
        assert check_runtime_plan(app.runtime, committed) == []


class TestTRC109Trips:
    def test_misdeclared_strategy_trips_with_trace_reference(self):
        # the one thing a plan can still mis-declare is a budget:
        # zeroing the desk's committed place_order ratio budgets its
        # pre-send forces away; the runtime still pays them (Algorithm
        # 2), so observed forces exceed the tampered budget
        bad = load_plan(PLAN_PATH)
        budget = next(
            entry for entry in bad.span_budgets
            if entry["method"] == "place_order"
        )
        budget["ratio_ro_on"] = budget["ratio_ro_off"] = 0.0
        app = run_orderflow()
        problems = check_runtime_plan(app.runtime, bad)
        assert problems, "a budget tighter than the runtime must trip"
        assert all(
            violation.invariant == "TRC109"
            for __, violation in problems
        )
        process_name, violation = problems[0]
        rendered = violation.render()
        assert "OrderDesk.place_order()" in rendered
        assert "(serial, entered at LSN" in rendered
        assert "exceeds the static bound" in rendered
        # the reference is replayable: the anchor LSN names a recorded
        # trace entry of that process
        assert f"entered at LSN {violation.lsn}" in rendered
        process = next(
            p for p in app.runtime.processes()
            if p.name == process_name
        )
        lsns = set()
        for entry in process.streams[0].trace.entries:
            lsns.add(entry.record_lsn)
            lsns.add(entry.end_lsn)
        assert violation.lsn in lsns

    def test_same_workload_passes_the_honest_plan(self, committed):
        app = run_orderflow()
        assert check_runtime_plan(app.runtime, committed) == []


class TestCLI:
    def test_check_is_clean_against_the_committed_plan(self, capsys):
        assert main(["plan", "--check"]) == 0
        assert "matches the wiring" in capsys.readouterr().out

    def test_stdout_plan_is_canonical_and_repeatable(self, capsys):
        assert main(["plan"]) == 0
        first = capsys.readouterr().out
        payload = json.loads(first)
        assert set(payload) >= {
            "components", "config", "edges", "shards",
            "span_budgets", "version",
        }
        assert main(["plan"]) == 0
        assert capsys.readouterr().out == first

    def test_text_format_summarizes_shards(self, capsys):
        assert main(["plan", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "bookstore-app" in out
        assert "OrderDesk" in out
