"""Regression: a crash inside ``method.before`` must unwind the serving
context.

The conformance analyzer surfaced this while being built: the
interceptor pushed the execution context before firing the
``method.before`` hook, but the hook ran outside the ``finally`` that
pops it.  A crash injected at that point left the dead context on the
stack, so the *caller's* next outgoing call was attributed to the
crashed context — a bogus cascaded crash that wedged the gateway
context busy and every later external call died with a re-entrant
ConfigurationError.  ``Context.abort_incoming`` plus the widened
try/finally in ``RequestInterceptor._execute`` fix it; these tests pin
the behaviour.
"""

from __future__ import annotations

from repro import (
    PersistentComponent,
    PhoenixRuntime,
    RuntimeConfig,
    persistent,
)
from repro.faults import arm, uninstall_plane
from tests.conftest import KvStore


@persistent
class FanOut(PersistentComponent):
    def __init__(self, left, right):
        self.left = left
        self.right = right

    def write_both(self, key, value):
        return (self.left.put(key, value), self.right.put(key, value))


def build_world():
    runtime = PhoenixRuntime(config=RuntimeConfig.optimized())
    runtime.external_client_machine = "alpha"
    left_process = runtime.spawn_process("left", machine="beta")
    left = left_process.create_component(KvStore)
    right_process = runtime.spawn_process("right", machine="beta")
    right = right_process.create_component(KvStore)
    gw_process = runtime.spawn_process("gw", machine="alpha")
    gateway = gw_process.create_component(FanOut, args=(left, right))
    processes = {
        "gw": gw_process, "left": left_process, "right": right_process
    }
    return runtime, gateway, processes


class TestCrashInMethodBeforeUnwinds:
    def test_both_backends_crashing_midcall_stays_exactly_once(self):
        runtime, gateway, processes = build_world()
        arm(runtime, "left", "method.before")
        arm(runtime, "right", "method.before")
        assert gateway.write_both("k1", 0) == (1, 1)  # put returns size
        uninstall_plane()
        for name in ("left", "right"):
            process = processes[name]
            runtime.ensure_recovered(process)
            instance = process.incarnation.component_table[1].instance
            assert instance.data == {"k1": 0}
            assert instance.executions == 1  # exactly-once

    def test_gateway_context_is_reusable_after_backend_crash(self):
        runtime, gateway, processes = build_world()
        arm(runtime, "left", "method.before")
        gateway.write_both("k1", 1)
        uninstall_plane()
        # Before the fix this raised ConfigurationError (re-entrant
        # call): the gateway context was wedged busy.
        assert gateway.write_both("k2", 2) == (2, 2)
        assert gateway.write_both("k1", 3) == (2, 2)  # overwrite: same size

    def test_crashed_process_context_is_not_left_busy(self):
        runtime, gateway, processes = build_world()
        arm(runtime, "right", "method.before")
        gateway.write_both("k1", 5)
        uninstall_plane()
        right = processes["right"]
        runtime.ensure_recovered(right)
        for entry in right.incarnation.context_table.values():
            assert not entry.context_ref.busy
