"""The pytest conformance oracle.

Importing ``protocol_conformance_oracle`` from a ``conftest.py`` turns
every test in that tree into a protocol-conformance check: after the
test body runs, the trace checker sweeps the logs of every runtime the
test created and fails the test on any commit-condition violation.
When committed :class:`~repro.analysis.plan.LogPlan` files are present
(``plans/*.logplan.json`` at the repo root; override the search with
the ``REPRO_LOG_PLANS`` environment variable, empty to disable), the
same sweep also replays each runtime's traces against the plans'
committed force budgets (TRC109 — TRC106's check, bounds read from the
plan).  Mark a test ``@pytest.mark.no_conformance_check`` to opt out
(e.g. when it deliberately corrupts a log).
"""

from __future__ import annotations

import pytest

from . import registry
from .trace_check import check_runtime


@pytest.fixture(autouse=True)
def protocol_conformance_oracle(request):
    token = registry.mark()
    yield
    if request.node.get_closest_marker("no_conformance_check") is not None:
        return
    from .plan import check_runtime_plan, committed_plans

    lines = []
    for runtime in registry.runtimes_since(token):
        for process_name, violation in check_runtime(runtime):
            lines.append(f"  {process_name}: {violation.render()}")
        for plan in committed_plans():
            for process_name, violation in check_runtime_plan(runtime, plan):
                lines.append(f"  {process_name}: {violation.render()}")
    if lines:
        pytest.fail(
            "protocol conformance violations in this test's logs:\n"
            + "\n".join(lines),
            pytrace=False,
        )
