#!/usr/bin/env python3
"""An order-processing pipeline on Phoenix/App.

A persistent OrderDesk orchestrates every order across a functional
pricing engine, a read-only fraud screen, and two persistent backends
(inventory and customer ledger), recording history in subordinate
per-customer order books.  The demo places orders, survives crashes of
both tiers, and shows what the Section 3.5 multi-call optimization does
to the desk's log forces.

Run with::

    python examples/orderflow_demo.py
"""

from repro import ApplicationError
from repro.apps.orderflow import deploy_orderflow
from repro.faults import arm


def place(desk, customer, sku, quantity):
    order = desk.place_order(customer, sku, quantity)
    print(
        f"  order #{order['order_id']}: {quantity} x {sku} for "
        f"{customer} -> ${order['total']:.2f} "
        f"({order['verdict']}, {order['stock_left']} left)"
    )
    return order


def main() -> None:
    app = deploy_orderflow()
    desk = app.desk

    print("== a normal day at the order desk ==")
    place(desk, "ada", "widget", 10)
    place(desk, "bob", "gadget", 2)
    big = place(desk, "ada", "gizmo", 30)

    print("\n== the fraud screen reads the persistent ledger ==")
    try:
        desk.place_order("ada", "gizmo", 40)
    except ApplicationError as exc:
        print(f"  rejected: {exc}")
    print(f"  ada's exposure: ${app.ledger.exposure('ada'):,.2f}")

    print("\n== cancel restores stock and ledger atomically ==")
    desk.cancel_order("ada", big["order_id"])
    print(f"  gizmos back in stock: {app.inventory.available('gizmo')}")
    print(f"  ada's exposure now:   ${app.ledger.exposure('ada'):,.2f}")

    print("\n== both tiers crash; the books stay exact ==")
    runtime = app.runtime
    for point, process_name in (
        ("method.after", "orderflow-backend"),
        ("reply.before_send", "orderflow-backend"),
    ):
        arm(runtime, process_name, point)
        place(desk, "bob", "widget", 3)
    runtime.crash_process(app.desk_process)
    runtime.crash_process(app.backend_process)
    history = desk.order_history("bob")
    print(f"  bob's history after crashes: {len(history)} orders")
    booked = sum(
        o["quantity"] for o in history
        if o["sku"] == "widget" and not o.get("cancelled")
    )
    stock_used = 1000 - app.inventory.available("widget")
    ada_widgets = sum(
        o["quantity"] for o in desk.order_history("ada")
        if o["sku"] == "widget" and not o.get("cancelled")
    )
    assert stock_used == booked + ada_widgets
    print(f"  stock accounting exact: {stock_used} widgets out = "
          f"{ada_widgets} (ada) + {booked} (bob)")

    print("\n== the multi-call optimization on the fan-out ==")
    # The skip is per server *process*: a repeat call into the same
    # process evicts the earlier call's last-call entry, so it must
    # force again.  Inventory and ledger therefore go in separate
    # backend processes here; in the standard co-hosted deployment the
    # optimization (correctly) changes nothing.
    for enabled in (False, True):
        trial = deploy_orderflow(
            multicall=enabled, split_backend=True
        )
        trial.desk.place_order("eve", "widget", 1)  # learn types
        before = trial.desk_process.log.stats.forces_performed
        trial.desk.place_order("eve", "widget", 1)
        forces = trial.desk_process.log.stats.forces_performed - before
        label = "with multi-call" if enabled else "without multi-call"
        print(f"  desk forces per order {label}: {forces}")


if __name__ == "__main__":
    main()
