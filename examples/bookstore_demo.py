#!/usr/bin/env python3
"""The paper's online bookstore (Section 5.5), at all three
optimization levels.

Deploys Figure 10's six component kinds — two Bookstores, a
PriceGrabber, a TaxCalculator, a BookSeller with per-buyer BasketManager
and ShoppingBasket — and drives the automated BookBuyer through the
paper's operation mix.  Reports elapsed time and log forces per
iteration at each optimization level (the Table 8 experiment), then
shows the application surviving a server crash mid-session.

Run with::

    python examples/bookstore_demo.py
"""

from repro.apps.bookstore import (
    BookBuyer,
    OptimizationLevel,
    deploy_bookstore,
)
from repro.faults import arm

ITERATIONS = 10


def run_level(level: OptimizationLevel):
    app = deploy_bookstore(level=level)
    buyer = BookBuyer(app)
    report = buyer.run_session(iterations=ITERATIONS)
    return app, report


def main() -> None:
    print("== Table 8: elapsed time and log forces per operation set ==")
    print(f"{'level':24s} {'elapsed/iter':>14s} {'forces/iter':>12s}")
    reports = {}
    for level in OptimizationLevel:
        app, report = run_level(level)
        reports[level] = report
        print(
            f"{level.value:24s} "
            f"{report.elapsed_ms / ITERATIONS:>11.1f} ms "
            f"{report.forces / ITERATIONS:>12.1f}"
        )
    baseline = reports[OptimizationLevel.BASELINE]
    specialized = reports[OptimizationLevel.SPECIALIZED]
    cut = 1 - (specialized.elapsed_ms / baseline.elapsed_ms)
    print(f"\nresponse time cut by {cut:.0%} "
          "(paper: 'approximately in half')")
    assert reports[OptimizationLevel.BASELINE].totals == (
        reports[OptimizationLevel.SPECIALIZED].totals
    ), "optimizations must not change answers"

    print("\n== a shopping session that survives server crashes ==")
    app = deploy_bookstore(level=OptimizationLevel.SPECIALIZED)
    buyer = BookBuyer(app)
    clean = buyer.run_iteration()
    print(f"clean iteration: total ${clean['total']}")
    for point in ("method.after", "reply.before_send", "incoming.after_log"):
        arm(app.runtime, "bookstore-app", point)
        outcome = buyer.run_iteration()
        print(
            f"crash at {point:22s} -> total ${outcome['total']} "
            f"(buyer retries: {buyer._retries}, "
            f"server crashes: {app.server_process.crash_count})"
        )
        assert outcome["total"] == clean["total"]
    print("\nevery iteration produced the same receipt — exactly-once "
          "under the persistent tier, manual retry above it.")


if __name__ == "__main__":
    main()
