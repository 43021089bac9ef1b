"""The static force-cost model (docs/internals.md section 10).

Prices one external invocation of every exported call path under
Algorithm 1 and under Algorithms 2-5 + the Section 3.5 multi-call rule,
and exports the per-span force bounds TRC106 checks traces against.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.infer import build_cost_model
from repro.analysis.infer.costmodel import (
    edge_cells,
    entry_cells,
    force_ratio,
    forces,
    records,
)
from repro.analysis.model import ProgramModel, iter_py_files

APPS = Path(__file__).resolve().parents[2] / "src" / "repro" / "apps"


@pytest.fixture(scope="module")
def cost_model():
    model = ProgramModel.from_paths(list(iter_py_files([APPS])))
    return build_cost_model(model)


@pytest.fixture(scope="module")
def paths(cost_model):
    return {
        (entry["entry"], entry["method"]): entry
        for entry in cost_model.report()["paths"]
    }


class TestPaperPrices:
    """The prices are derived from ``common/message_actions.py``; the
    paper's numbers are pinned here, where they are derived, so a table
    edit that silently reprices shows up as a named cell."""

    CATEGORIES = ("functional", "read_only", "persistent", "unknown")
    CALLERS = ("persistent", "functional", "read_only", None)

    @pytest.mark.parametrize(
        "category, caller, price",
        [
            ("functional", "persistent", (0, 0)),  # Algorithm 4
            ("functional", "functional", (0, 0)),
            ("read_only", "persistent", (1, 0)),  # unforced message 4
            ("read_only", "functional", (0, 0)),  # stateless caller
            ("read_only", "read_only", (0, 0)),
            ("persistent", "persistent", (2, 2)),  # msgs 4+1; 3+2
            ("persistent", None, (2, 2)),  # unknown caller: persistent
            ("persistent", "functional", (1, 1)),  # server side only
            ("persistent", "read_only", (0, 0)),  # Algorithm 5 at server
            ("unknown", "persistent", (2, 2)),  # Section 3.4
        ],
    )
    def test_optimized_edge(self, category, caller, price):
        cells = edge_cells(caller, category)
        assert (records(cells), forces(cells)) == price

    def test_baseline_edge_is_four_forced_records(self):
        for category in self.CATEGORIES:
            for caller in self.CALLERS:
                cells = edge_cells(caller, category, optimized=False)
                assert (records(cells), forces(cells)) == (4, 4)

    @pytest.mark.parametrize(
        "declared, read_only_marked, price",
        [
            ("persistent", False, (2, 2)),  # Algorithm 3
            (None, False, (2, 2)),
            ("persistent", True, (0, 0)),  # Algorithm 5
            ("functional", False, (0, 0)),  # stateless entry
            ("read_only", False, (0, 0)),
        ],
    )
    def test_external_entry(self, declared, read_only_marked, price):
        cells = entry_cells(declared, read_only_marked)
        assert (records(cells), forces(cells)) == price
        baseline = entry_cells(declared, read_only_marked, optimized=False)
        assert (records(baseline), forces(baseline)) == (2, 2)

    def test_force_ratios(self):
        assert [force_ratio(category) for category in self.CATEGORIES] == [
            0.0, 0.0, 0.5, 0.5,
        ]


class TestPathCosts:
    def test_every_instantiated_public_method_is_priced(self, paths):
        assert ("OrderDesk", "place_order") in paths
        assert ("Bookstore", "search") in paths
        # subordinates are not externally callable entry points
        assert not any(entry == "OrderBook" for entry, __ in paths)

    def test_optimized_never_costs_more_than_baseline(self, paths):
        for (entry, method), path in paths.items():
            assert (
                path["optimized"]["forces"] <= path["baseline"]["forces"]
            ), f"{entry}.{method}"
            assert (
                path["optimized"]["records"] <= path["baseline"]["records"]
            ), f"{entry}.{method}"

    def test_read_only_entry_is_force_free_optimized(self, paths):
        # Bookstore.search is @read_only_method on a persistent server:
        # Algorithm 5 costs the external caller nothing at the entry
        path = paths[("Bookstore", "search")]
        assert path["baseline"]["forces"] == 2
        assert path["optimized"]["forces"] == 0

    def test_stateless_fanout_is_force_free_optimized(self, paths):
        # FraudScreen (read_only) consults the ledger's read-only
        # methods: the whole span is Algorithm 4/5 territory
        path = paths[("FraudScreen", "check")]
        assert path["baseline"]["forces"] == 10
        assert path["optimized"]["forces"] == 0

    def test_place_order_pipeline(self, paths):
        # price (functional) + fraud (read_only) + reserve/charge
        # (persistent) + subordinate record: Algorithm 1 forces every
        # message of every hop; Algorithms 2-5 keep only the stateful
        # edges and the external entry
        path = paths[("OrderDesk", "place_order")]
        assert path["baseline"]["forces"] == 26
        assert path["optimized"]["forces"] == 6
        # two distinct server processes under split_backend: the §3.5
        # rule skips one force per extra new process
        assert path["multicall_saved_forces"] == 1

    def test_loop_edges_priced_per_iteration(self, paths):
        grabber = paths[("PriceGrabber", "search")]
        assert grabber["loop_edges"] == 1
        assert grabber["optimized"]["forces"] == 0  # read-only fan-out
        cancel = paths[("OrderDesk", "cancel_order")]
        assert cancel["loop_edges"] == 2
        assert cancel["per_extra_iteration"]["forces"] > 0

    def test_edges_carry_resolved_targets(self, paths):
        edges = paths[("OrderDesk", "place_order")]["edges"]
        by_target = {
            target: edge["category"]
            for edge in edges
            for target in edge["targets"]
        }
        assert by_target["PricingEngine"] == "functional"
        assert by_target["FraudScreen"] == "read_only"
        assert by_target["Inventory"] == "persistent"
        assert by_target["CustomerLedger"] == "persistent"


class TestForceBounds:
    @pytest.fixture(scope="class")
    def bounds(self, cost_model):
        return cost_model.force_bounds()

    def test_every_deployed_entry_gets_a_bound(self, bounds):
        assert len(bounds) > 0
        assert bounds.for_span("orderflow-desk", "place_order")
        assert bounds.for_span("bookstore-app", "search")
        assert bounds.for_span("nowhere", "nothing") is None

    def test_read_only_fanout_ratio_depends_on_the_optimization(
        self, bounds
    ):
        # search's only edges hit read-only methods: force-free when
        # the read-only-method optimization is on, half-rate when off
        span = bounds.for_span("bookstore-app", "search")
        assert span.ratio_ro_on == 0.0
        assert span.ratio_ro_off == 0.5

    def test_persistent_fanout_keeps_the_ratio(self, bounds):
        span = bounds.for_span("orderflow-desk", "place_order")
        assert span.ratio_ro_on == 0.5
        assert span.ratio_ro_off == 0.5

    def test_functional_fanout_is_free_either_way(self, bounds):
        span = bounds.for_span("orderflow-backend", "quote")
        assert span.ratio_ro_on == 0.0
        assert span.ratio_ro_off == 0.0

    def test_split_tier_gets_its_own_spans(self, bounds):
        # CustomerLedger deploys to either process depending on
        # split_backend; both placements carry bounds
        for process in ("orderflow-backend", "orderflow-ledger"):
            span = bounds.for_span(process, "check")
            assert span is not None
            assert span.ratio_ro_on == 0.0
            assert span.ratio_ro_off == 0.5

    def test_serializes_for_the_cli(self, bounds):
        table = bounds.to_dict()
        assert len(table["bounds"]) == len(bounds)
        sample = table["bounds"][0]
        assert {
            "process", "method", "classes", "ratio_ro_on", "ratio_ro_off"
        } <= set(sample)


# ----------------------------------------------------------------------
# synthetic deployments: loop-nested multi-calls, subordinate
# co-deployment
# ----------------------------------------------------------------------
PAIRFARM = '''
from repro.core import (
    PersistentComponent, persistent, subordinate,
)


@persistent
class Alpha(PersistentComponent):
    def __init__(self):
        self.hits = 0

    def poke(self) -> int:
        self.hits += 1
        return self.hits


@persistent
class Beta(PersistentComponent):
    def __init__(self):
        self.hits = 0

    def poke(self) -> int:
        self.hits += 1
        return self.hits


@subordinate
class Memo(PersistentComponent):
    def __init__(self):
        self.notes = []

    def jot(self, text: str) -> int:
        self.notes.append(text)
        return len(self.notes)


@persistent
class Hub(PersistentComponent):
    def __init__(self, alpha, beta):
        self.alpha = alpha
        self.beta = beta
        self.memo = None

    def pair(self) -> int:
        return self.alpha.poke() + self.beta.poke()

    def sweep(self, skus: list) -> int:
        total = 0
        for __ in skus:
            total += self.alpha.poke()
            total += self.beta.poke()
        return total

    def note(self, text: str) -> int:
        if self.memo is None:
            self.memo = self.new_subordinate(Memo)
        return self.memo.jot(text)


def deploy_pairfarm(runtime):
    left = runtime.spawn_process("pair-left")
    right = runtime.spawn_process("pair-right")
    front = runtime.spawn_process("pair-front")
    alpha = left.create_component(Alpha)
    beta = right.create_component(Beta)
    hub = front.create_component(Hub, args=(alpha, beta))
    return hub
'''


class TestLoopNestedMultiCalls:
    """Section 3.5 prices the skip per *straight-line* last call: a
    multi-call fanned out inside a loop re-forces every iteration and
    earns no discount."""

    @pytest.fixture(scope="class")
    def farm_paths(self):
        model = ProgramModel.from_source(PAIRFARM, "pairfarm.py")
        return {
            (entry["entry"], entry["method"]): entry
            for entry in build_cost_model(model).report()["paths"]
        }

    def test_straight_line_multicall_earns_the_skip(self, farm_paths):
        pair = farm_paths[("Hub", "pair")]
        # entry (2) + two persistent hops (2+2) across two distinct
        # server processes; one pre-send force skipped under 3.5
        assert pair["optimized"]["forces"] == 6
        assert pair["multicall_saved_forces"] == 1
        assert pair["loop_edges"] == 0

    def test_loop_nested_multicall_earns_nothing(self, farm_paths):
        sweep = farm_paths[("Hub", "sweep")]
        # same fan-out, loop-nested: both edges are loop edges, each
        # iteration re-forces both sends -- no 3.5 skip
        assert sweep["multicall_saved_forces"] == 0
        assert sweep["loop_edges"] == 2
        assert sweep["per_extra_iteration"]["forces"] == 4
        assert all(edge["in_loop"] for edge in sweep["edges"])

    def test_loop_span_base_cost_matches_straight_line(self, farm_paths):
        # the base span prices one iteration; extra iterations are the
        # per_extra_iteration slope (minus pair's multicall discount)
        assert (
            farm_paths[("Hub", "sweep")]["optimized"]["forces"]
            == farm_paths[("Hub", "pair")]["optimized"]["forces"]
        )


class TestSubordinateCoDeployment:
    """A subordinate lives in its parent's context: the call edge is
    inlined (no messages, no forces) and placement follows the parent's
    process."""

    @pytest.fixture(scope="class")
    def farm_model(self):
        return ProgramModel.from_source(PAIRFARM, "pairfarm.py")

    def test_subordinate_hop_is_priced_free(self, farm_model):
        paths = {
            (entry["entry"], entry["method"]): entry
            for entry in build_cost_model(farm_model).report()["paths"]
        }
        note = paths[("Hub", "note")]
        # entry cost only: Memo.jot never crosses a process boundary
        assert note["optimized"]["forces"] == 2
        assert note["baseline"]["forces"] == 2
        assert note["edges"] == []

    def test_graph_inherits_the_parent_process(self, farm_model):
        from repro.analysis.plan import build_graph

        graph, __ = build_graph(farm_model)
        assert graph.nodes["Memo"].processes == ("pair-front",)
        assert graph.nodes["Memo"].processes == (
            graph.nodes["Hub"].processes
        )

    def test_affinity_edge_is_zero_weight_and_uncuttable(self, farm_model):
        from repro.analysis.plan import PlanConfig, build_graph, build_plan

        graph, __ = build_graph(farm_model)
        (affinity,) = graph.affinity_edges()
        assert (affinity.src, affinity.dst) == ("Hub", "Memo")
        assert affinity.weight == 0.0
        assert affinity.subordinate
        # and the partition honors it even under maximal sharding
        plan = build_plan(farm_model, PlanConfig(shards=3))
        placement = {
            e["name"]: e["shard"] for e in plan.components
        }
        assert placement["Memo"] == placement["Hub"]
