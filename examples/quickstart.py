#!/usr/bin/env python3
"""Quickstart: a persistent component that survives crashes.

Phoenix/App's promise: declare a component ``@persistent`` and the
runtime makes its state persistent across crashes, transparently, with
exactly-once semantics — no explicit save/load code in the component.

Run with::

    python examples/quickstart.py
"""

from repro import (
    ComponentUnavailableError,
    PersistentComponent,
    PhoenixRuntime,
    persistent,
    read_only_method,
)
from repro.faults import arm


@persistent
class BankAccount(PersistentComponent):
    """Ordinary stateful code — fields are the persistent state."""

    def __init__(self, owner: str):
        self.owner = owner
        self.balance = 0.0
        self.history = []

    def deposit(self, amount: float) -> float:
        self.balance += amount
        self.history.append(("deposit", amount))
        return self.balance

    def withdraw(self, amount: float) -> float:
        if amount > self.balance:
            raise ValueError(f"insufficient funds: {self.balance:.2f}")
        self.balance -= amount
        self.history.append(("withdraw", amount))
        return self.balance

    @read_only_method
    def statement(self) -> list:
        return list(self.history)


def main() -> None:
    # A runtime simulates machines, disks and the network; the paper's
    # two-machine testbed is the default.
    runtime = PhoenixRuntime()
    process = runtime.spawn_process("bank", machine="alpha")
    account = process.create_component(BankAccount, args=("Ada",))

    print("== normal operation ==")
    print(f"deposit 100 -> balance {account.deposit(100.0):.2f}")
    print(f"deposit  50 -> balance {account.deposit(50.0):.2f}")
    print(f"withdraw 30 -> balance {account.withdraw(30.0):.2f}")

    print("\n== kill the hosting process ==")
    runtime.crash_process(process)
    print(f"process state: {process.state.value}")

    print("\n== next call transparently recovers it ==")
    balance = account.deposit(5.0)
    print(f"deposit   5 -> balance {balance:.2f}   (expected 125.00)")
    assert balance == 125.0
    print(f"history survived: {account.statement()}")

    print("\n== crashes mid-call are recognized failures ==")
    arm(runtime, "bank", "method.after")
    try:
        account.deposit(1.0)
    except ComponentUnavailableError as exc:
        print(f"external caller saw: {exc}")
    balance = account.deposit(1.0)
    print(f"after retrying: balance {balance:.2f}")
    print(
        "note: the interrupted deposit applied during recovery AND on "
        "the retry\n      — external callers carry no call IDs, so their "
        "retries cannot be\n      deduplicated (the paper's Section 3.1.2 "
        "window of vulnerability).\n      Put a persistent component in "
        "front (see crash_recovery_demo.py)\n      to get exactly-once "
        "end to end."
    )

    print(f"\nsimulated time elapsed: {runtime.now:.1f} ms")
    print(f"log forces: {process.log.stats.forces_performed}, "
          f"recoveries: {process.recovery_count}")


if __name__ == "__main__":
    main()
