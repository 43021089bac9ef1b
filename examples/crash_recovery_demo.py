#!/usr/bin/env python3
"""Walking the paper's Figure 2: the three failure situations.

A three-tier pipeline (external driver -> Front -> Middle -> Store) with
a crash injected into the Middle component at every point of its message
pipeline.  Because Front is persistent, every failure of Middle is
masked: Front retries with the same deterministic call ID, Middle
recovers by replay, duplicate detection at Middle and Store eliminates
re-execution, and the Store ends up having executed each operation
exactly once.

Run with::

    python examples/crash_recovery_demo.py
"""

from repro import PersistentComponent, PhoenixRuntime, persistent
from repro.faults import arm


@persistent
class Store(PersistentComponent):
    def __init__(self):
        self.rows = {}
        self.executions = 0

    def insert(self, key, value):
        self.executions += 1
        self.rows[key] = value
        return len(self.rows)


@persistent
class Middle(PersistentComponent):
    """The component of Figure 2: receives message 1, sends message 3,
    receives message 4, sends message 2."""

    def __init__(self, store):
        self.store = store
        self.served = 0

    def insert(self, key, value):
        self.served += 1
        rows = self.store.insert(key, value)
        return (self.served, rows)


@persistent
class Front(PersistentComponent):
    def __init__(self, middle):
        self.middle = middle

    def insert(self, key, value):
        return self.middle.insert(key, value)


# Figure 2's failure situations, expressed as pipeline points of Middle:
FAILURE_POINTS = [
    ("incoming.before_log", "before message 1 is logged"),
    ("incoming.after_log", "after message 1 is logged"),
    ("outgoing.before_log", "before message 3 commits"),
    ("outgoing.before_send", "after the message-3 force, before send"),
    ("reply_received.before_log", "after message 4, before logging it"),
    ("reply.before_send", "after the message-2 force, before send"),
    ("reply.after_send", "after message 2 is sent"),
]


def main() -> None:
    runtime = PhoenixRuntime()
    store_process = runtime.spawn_process("store", machine="beta")
    store = store_process.create_component(Store)
    middle_process = runtime.spawn_process("middle", machine="beta")
    middle = middle_process.create_component(Middle, args=(store,))
    front_process = runtime.spawn_process("front", machine="alpha")
    front = front_process.create_component(Front, args=(middle,))

    front.insert("genesis", 0)
    print(f"{'failure point':28s} {'result':>10s} {'store execs':>12s} "
          f"{'crashes':>8s}")
    for index, (point, description) in enumerate(FAILURE_POINTS, start=2):
        arm(runtime, "middle", point)
        result = front.insert(f"key-{index}", index)
        runtime.ensure_recovered(middle_process)
        executions = store_process.component_table[1].instance.executions
        print(f"{point:28s} {str(result):>10s} {executions:>12d} "
              f"{middle_process.crash_count:>8d}")
        assert result == (index, index), "wrong reply after recovery"
        assert executions == index, "store executed a duplicate!"

    print(f"\n{len(FAILURE_POINTS)} crashes, zero duplicates, zero lost "
          "operations — condition 1-5 of Section 2.2 at work.")
    rows = store_process.component_table[1].instance.rows
    print(f"final store contents: {len(rows)} rows, "
          f"{store_process.component_table[1].instance.executions} "
          "executions")
    print(f"simulated time: {runtime.now/1000:.2f} s "
          f"(includes {middle_process.recovery_count} recoveries)")


if __name__ == "__main__":
    main()
