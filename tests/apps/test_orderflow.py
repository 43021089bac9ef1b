"""The order-processing pipeline application."""

import pytest

from repro import ApplicationError, ComponentUnavailableError
from repro.apps.orderflow import deploy_orderflow
from repro.faults import arm


@pytest.fixture
def app():
    return deploy_orderflow()


def backend_instance(app, lid):
    return app.backend_process.component_table[lid].instance


class TestPipeline:
    def test_place_order(self, app):
        order = app.desk.place_order("ada", "widget", 10)
        assert order["total"] == pytest.approx(94.91)  # 10 x 9.99 x 0.95
        assert order["verdict"] == "approve"
        assert order["stock_left"] == 990

    def test_volume_discounts(self, app):
        small = app.desk.place_order("ada", "widget", 1)
        big = app.desk.place_order("ada", "widget", 100)
        assert small["total"] == pytest.approx(9.99)
        assert big["total"] == pytest.approx(9.99 * 100 * 0.85, abs=0.01)

    def test_order_ids_sequential(self, app):
        first = app.desk.place_order("ada", "widget", 1)
        second = app.desk.place_order("bob", "gadget", 1)
        assert (first["order_id"], second["order_id"]) == (1, 2)

    def test_out_of_stock_rejected(self, app):
        # 60 gizmos pass the fraud screen (~$8.5k < $10k limit) but
        # exceed the 40 in stock
        with pytest.raises(ApplicationError, match="in stock"):
            app.desk.place_order("ada", "gizmo", 60)
        # nothing was charged for the failed order
        assert app.ledger.exposure("ada") == 0.0

    def test_fraud_review_and_reject(self, app):
        # a large order is flagged for review but succeeds
        review = app.desk.place_order("ada", "gizmo", 40)
        assert review["verdict"] == "review"
        # ada is now over half the limit; pushing past the limit rejects
        app.inventory.release("gizmo", 40)
        with pytest.raises(ApplicationError, match="rejected"):
            app.desk.place_order("ada", "gizmo", 40)
        assert app.desk.rejected_count() == 1

    def test_cancel_restores_stock_and_ledger(self, app):
        order = app.desk.place_order("ada", "gadget", 4)
        cancelled = app.desk.cancel_order("ada", order["order_id"])
        assert cancelled["cancelled"] is True
        assert app.inventory.available("gadget") == 500
        assert app.ledger.exposure("ada") == 0.0

    def test_cancel_unknown_order(self, app):
        with pytest.raises(ApplicationError, match="no order"):
            app.desk.cancel_order("ada", 99)

    def test_per_customer_history_isolated(self, app):
        app.desk.place_order("ada", "widget", 1)
        app.desk.place_order("bob", "widget", 2)
        app.desk.place_order("ada", "gadget", 3)
        assert len(app.desk.order_history("ada")) == 2
        assert len(app.desk.order_history("bob")) == 1


class TestCrashResilience:
    BACKEND_POINTS = [
        "incoming.after_log",
        "method.after",
        "reply.before_send",
        "reply.after_send",
    ]

    @pytest.mark.parametrize("point", BACKEND_POINTS)
    def test_backend_crash_masked(self, app, point):
        app.desk.place_order("ada", "widget", 1)
        arm(app.runtime, "orderflow-backend", point)
        order = app.desk.place_order("ada", "widget", 2)
        assert order["stock_left"] == 997
        inventory = backend_instance(app, 1)
        assert inventory.reservations == 2  # exactly once each
        assert app.ledger.exposure("ada") == pytest.approx(
            9.99 + 2 * 9.99, abs=0.01
        )

    def test_desk_crash_mid_fanout_keeps_books_consistent(self, app):
        """Crash the desk after it reserved inventory but before it
        finished the order.  Recovery completes the in-flight order
        (exactly-once below the desk); the *external* retry then places
        a second order — the documented external-client window — but
        the books and the stock must agree exactly: every reservation
        is accounted for by a recorded order, no partial effects."""
        app.desk.place_order("ada", "widget", 1)
        arm(
            app.runtime, "orderflow-desk", "reply_received.before_log",
            occurrence=3,
        )
        try:
            app.desk.place_order("ada", "widget", 5)
        except ComponentUnavailableError:
            app.desk.place_order("ada", "widget", 5)
        history = app.desk.order_history("ada")
        booked_quantity = sum(
            order["quantity"]
            for order in history
            if not order.get("cancelled")
        )
        inventory = backend_instance(app, 1)
        assert 1000 - inventory.stock["widget"] == booked_quantity
        booked_total = sum(
            order["total"] for order in history
            if not order.get("cancelled")
        )
        assert app.ledger.exposure("ada") == pytest.approx(booked_total)

    def test_full_process_crashes_between_orders(self, app):
        for i in range(3):
            app.desk.place_order("ada", "widget", 1)
            app.runtime.crash_process(app.desk_process)
            app.runtime.crash_process(app.backend_process)
        assert app.inventory.available("widget") == 997
        assert len(app.desk.order_history("ada")) == 3
        inventory = backend_instance(app, 1)
        assert inventory.reservations == 3


class TestMulticall:
    def test_multicall_cuts_desk_forces_across_processes(self):
        """Split backend: inventory and ledger in separate server
        processes, the shape the Section 3.5 skip is sound for."""
        forces = {}
        for enabled in (False, True):
            app = deploy_orderflow(multicall=enabled, split_backend=True)
            app.desk.place_order("ada", "widget", 1)  # warm types
            before = app.desk_process.log.stats.forces_performed
            app.desk.place_order("ada", "widget", 1)
            forces[enabled] = (
                app.desk_process.log.stats.forces_performed - before
            )
        # the fan-out touches two persistent server PROCESSES
        # (inventory tier, ledger tier); multi-call collapses their
        # per-call forces into the first one
        assert forces[True] < forces[False]

    def test_multicall_cohosted_servers_cannot_skip(self):
        """In the standard deployment inventory and ledger share one
        backend process; its last-call table keeps a single entry per
        caller, so skipping the ledger call's force would leave the
        inventory call's reply unrecoverable.  The skip must not apply,
        so the force counts match the unoptimized run."""
        forces = {}
        for enabled in (False, True):
            app = deploy_orderflow(multicall=enabled)
            app.desk.place_order("ada", "widget", 1)  # warm types
            before = app.desk_process.log.stats.forces_performed
            app.desk.place_order("ada", "widget", 1)
            forces[enabled] = (
                app.desk_process.log.stats.forces_performed - before
            )
        assert forces[True] == forces[False]

    def test_multicall_preserves_results(self):
        plain = deploy_orderflow(multicall=False)
        multi = deploy_orderflow(multicall=True)
        order_a = plain.desk.place_order("ada", "gadget", 2)
        order_b = multi.desk.place_order("ada", "gadget", 2)
        assert order_a == order_b

    def test_multicall_exactly_once_under_crashes(self):
        app = deploy_orderflow(multicall=True)
        app.desk.place_order("ada", "widget", 1)
        for point in ("method.after", "reply.before_send"):
            arm(app.runtime, "orderflow-backend", point)
            app.desk.place_order("ada", "widget", 1)
        inventory = backend_instance(app, 1)
        assert inventory.reservations == 3
        assert app.inventory.available("widget") == 997
