"""The workload catalogue: one driver, one oracle, legs as data.

A leg is ``(workload, flags)``; these tests pin what that design must
keep: the sweep's point IDs (which depend on every driver-log byte, so
on component qualnames and on the deploy -> runners -> warm-up -> arm
order), the agreement of every leg of a workload on replies and state,
and a determinism fingerprint on serial legs too.
"""

import hashlib
import re
from collections import defaultdict
from pathlib import Path

import pytest

from repro import RuntimeConfig
from repro.faults.sweep import discover_plan
from repro.faults.workloads import PHOENIX_LEGS, WORKLOADS, Workload, run

#: sha256 of ``python -m repro.faults list`` stdout (the full plan).
PLAN_POINTS = 7309
PLAN_SHA256 = (
    "87b13446266358b73fb39ef3302e7f48318aa4a21c24ad0d454818d1b45ae555"
)


def test_full_plan_point_ids_are_pinned():
    plan, __ = discover_plan()
    ids = [point.point_id for point in plan]
    assert len(ids) == PLAN_POINTS
    listing = "".join(f"{point_id}\n" for point_id in ids)
    assert hashlib.sha256(listing.encode()).hexdigest() == PLAN_SHA256


def test_the_nightly_sweep_matrix_runs_every_leg():
    """A leg added to the catalogue cannot go unswept nightly: the CI
    sweep job's ``--workload`` arguments are exactly the catalogue."""
    workflow = (
        Path(__file__).resolve().parents[2]
        / ".github" / "workflows" / "check.yml"
    ).read_text()
    sweep_job = re.search(r"\n  sweep:\n(.*?)\n  \w", workflow, re.S)
    assert sweep_job is not None
    swept = re.findall(r"--workload ([\w-]+)", sweep_job.group(1))
    assert sorted(swept) == sorted(WORKLOADS)


@pytest.fixture(scope="module")
def golden():
    return {
        name: run(*leg).raise_error() for name, leg in PHOENIX_LEGS.items()
    }


def test_every_leg_passes_the_oracle(golden):
    for name, outcome in golden.items():
        assert outcome.violations == [], (name, outcome.violations)
        assert outcome.state == outcome.state_after_recover, name


@pytest.mark.parametrize("workload", ["bookstore", "bookstore-buyers"])
def test_every_leg_of_a_workload_agrees(golden, workload):
    """Flags change the log, never the answers: every leg gives the
    replies and final state of the workload's first leg."""
    legs = defaultdict(list)
    for name, (leg, __) in PHOENIX_LEGS.items():
        legs[leg.name].append(name)
    names = legs[workload]
    assert len(names) > 1
    first = golden[names[0]]
    for name in names[1:]:
        assert golden[name].replies == first.replies, name
        assert golden[name].state == first.state, name


@pytest.mark.parametrize(
    "name",
    [name for name, (leg, __) in PHOENIX_LEGS.items() if leg.sessions == 1],
)
def test_serial_legs_fingerprint_deterministically(golden, name):
    again = run(*PHOENIX_LEGS[name]).raise_error()
    assert golden[name].determinism
    assert again.determinism == golden[name].determinism


def test_an_escaping_exception_is_kept_then_re_raised():
    """The sweep and explorer read ``error``; a caller that needs the
    run to have completed gets the original exception back."""
    broken = Workload(
        name="broken",
        config=RuntimeConfig.optimized(),
        deploy=lambda runtime, sessions: {},
        script=lambda session: (("missing", "step", ()),),
        runners=False,
    )
    outcome = run(broken)
    assert outcome.error == "KeyError: 'missing'"
    with pytest.raises(KeyError, match="missing"):
        outcome.raise_error()
