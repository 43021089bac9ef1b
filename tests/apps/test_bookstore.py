"""The online bookstore application (Section 5.5)."""

import pytest

from repro import ApplicationError
from repro.apps.bookstore import (
    BookBuyer,
    OptimizationLevel,
    deploy_bookstore,
)
from repro.faults import arm

LEVELS = list(OptimizationLevel)


@pytest.fixture(params=LEVELS, ids=[level.value for level in LEVELS])
def app(request):
    return deploy_bookstore(level=request.param)


class TestFunctionality:
    def test_search_finds_books_in_all_stores(self, app):
        hits = app.price_grabber.search("recovery")
        assert hits
        assert {store for store, __, __ in hits} == {0, 1}

    def test_search_results_sorted_cheapest_first_per_title(self, app):
        hits = app.price_grabber.search("recovery")
        by_title = {}
        for store, title, price in hits:
            by_title.setdefault(title, []).append(price)
        for prices in by_title.values():
            assert prices == sorted(prices)

    def test_basket_lifecycle(self, app):
        seller = app.seller
        assert seller.show_basket("buyer-1") == []
        seller.add_to_basket("buyer-1", 0, "Some Book", 25.0)
        seller.add_to_basket("buyer-1", 1, "Other Book", 30.0)
        assert len(seller.show_basket("buyer-1")) == 2
        assert seller.basket_subtotal("buyer-1") == 55.0
        assert seller.clear_basket("buyer-1") == 2
        assert seller.show_basket("buyer-1") == []

    def test_tax_calculator(self, app):
        assert app.tax_calculator.tax(100.0, "wa") == 9.5
        assert app.tax_calculator.total_with_tax(100.0, "or") == 100.0

    def test_store_sales_recorded(self, app):
        store = app.stores[0]
        title = app.price_grabber.search("recovery")[0][1]
        price = store.price(title)
        assert store.buy(title) == price

    def test_unknown_title_rejected(self, app):
        with pytest.raises(ApplicationError):
            app.stores[0].buy("No Such Book")


class TestBuyerSession:
    def test_session_outcome_identical_across_levels(self):
        reports = {}
        for level in LEVELS:
            app = deploy_bookstore(level=level)
            buyer = BookBuyer(app)
            report = buyer.run_session(iterations=3)
            reports[level] = report
        totals = {tuple(r.totals) for r in reports.values()}
        assert len(totals) == 1  # same answers at every level
        added = {r.books_added for r in reports.values()}
        assert added == {6}  # 2 stores x 3 iterations

    def test_forces_strictly_decrease_with_optimization(self):
        forces = []
        for level in LEVELS:
            app = deploy_bookstore(level=level)
            report = BookBuyer(app).run_session(iterations=3)
            forces.append(report.forces)
        assert forces[0] > forces[1] > forces[2]

    def test_elapsed_strictly_decreases_with_optimization(self):
        elapsed = []
        for level in LEVELS:
            app = deploy_bookstore(level=level)
            report = BookBuyer(app).run_session(iterations=3)
            elapsed.append(report.elapsed_ms)
        assert elapsed[0] > elapsed[1] > elapsed[2]

    def test_response_time_at_least_halved_overall(self):
        """Paper: 'Overall, we cut response time approximately in half
        for this small sample application.'"""
        baseline = BookBuyer(
            deploy_bookstore(level=OptimizationLevel.BASELINE)
        ).run_session(iterations=3)
        specialized = BookBuyer(
            deploy_bookstore(level=OptimizationLevel.SPECIALIZED)
        ).run_session(iterations=3)
        assert specialized.elapsed_ms <= baseline.elapsed_ms / 2


class TestCrashResilience:
    @pytest.mark.parametrize(
        "level", LEVELS, ids=[level.value for level in LEVELS]
    )
    def test_session_survives_server_crashes(self, level):
        app = deploy_bookstore(level=level)
        buyer = BookBuyer(app)
        clean = buyer.run_iteration()
        # crash the server process during the next iterations
        runtime = app.runtime
        for point in ("method.after", "reply.before_send", "incoming.after_log"):
            arm(runtime, "bookstore-app", point)
            outcome = buyer.run_iteration()
            assert outcome["total"] == clean["total"]
            assert outcome["basket_size"] == clean["basket_size"]
        assert app.server_process.crash_count >= 1

    def test_basket_state_recovers_midflight(self):
        app = deploy_bookstore(level=OptimizationLevel.SPECIALIZED)
        seller = app.seller
        seller.add_to_basket("buyer-1", 0, "Book A", 10.0)
        app.runtime.crash_process(app.server_process)
        seller.add_to_basket("buyer-1", 1, "Book B", 20.0)
        assert seller.basket_subtotal("buyer-1") == 30.0

    def test_repeated_crashes_keep_inventory_consistent(self):
        app = deploy_bookstore(level=OptimizationLevel.SPECIALIZED)
        store = app.stores[0]
        title = store.search("recovery")[0][0]
        for round_number in range(3):
            store.buy(title)
            app.runtime.crash_process(app.server_process)
        # sold counts recovered exactly (buy executed exactly 3 times)
        process = app.server_process
        app.runtime.ensure_recovered(process)
        instance = process.component_table[1].instance
        assert instance.sold[title] == 3


class TestDeployment:
    def test_custom_store_count(self):
        app = deploy_bookstore(n_stores=4)
        hits = app.price_grabber.search("recovery")
        assert {store for store, __, __ in hits} == {0, 1, 2, 3}

    def test_multiple_buyers_isolated(self):
        app = deploy_bookstore(buyer_ids=("b1", "b2"))
        app.seller.add_to_basket("b1", 0, "Book", 10.0)
        assert app.seller.show_basket("b2") == []

    def test_unknown_buyer_at_persistent_levels(self):
        app = deploy_bookstore(level=OptimizationLevel.BASELINE)
        with pytest.raises(ApplicationError):
            app.seller.add_to_basket("stranger", 0, "Book", 10.0)

    def test_string_level_accepted(self):
        app = deploy_bookstore(level="baseline")
        assert app.level is OptimizationLevel.BASELINE

    def test_multicall_flag(self):
        app = deploy_bookstore(multicall=True)
        assert app.runtime.config.multicall_optimization
