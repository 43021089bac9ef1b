"""Schedule-space exploration: DPOR, SCHEDULE_ID replay, mutations.

The headline properties from docs/internals.md section 13:

* DPOR enumerates the *full* reduced N=2 schedule space of the ledger
  workload with zero TRC101-109 violations, in strictly fewer
  schedules than naive DFS needs.
* Every explored schedule is replayable: its SCHEDULE_ID reruns
  byte-identically (same fingerprint, same trace).
* Seeded protocol mutations are caught, with a replayable
  counterexample: dropping the commit force trips TRC107 (causal
  prefix not stable), and dropping the context release edge trips
  TRC108 (cross-session state race).
"""

from __future__ import annotations

import pytest

from repro.common import message_actions
from repro.concurrency import ControlledPolicy, SeededRandomPolicy
from repro.concurrency import explore as ex
from repro.concurrency.scheduler import DeterministicScheduler
from repro.faults.workloads import run

LEDGER = ex.EXPLORE_WORKLOADS["ledger"]


def test_schedule_id_roundtrip():
    sid = ex.encode_schedule_id("ledger", 2, [0, 1, 1, 0, 35], ())
    workload, sessions, specs, choices = ex.decode_schedule_id(sid)
    assert workload == "ledger"
    assert sessions == 2
    assert specs == ()
    assert choices == [0, 1, 1, 0, 35]
    # Empty choice list uses the "-" placeholder.
    sid_empty = ex.encode_schedule_id("ledger", 3, [], ())
    assert ex.decode_schedule_id(sid_empty)[3] == []


def test_schedule_id_carries_crash_specs():
    specs = ex.derive_crash_specs("ledger", 2, limit=1)
    assert specs, "golden run must hit at least one durability site"
    sid = ex.encode_schedule_id("ledger", 2, [0, 0], specs)
    _, _, decoded, _ = ex.decode_schedule_id(sid)
    assert [s.render() for s in decoded] == [s.render() for s in specs]


def test_schedule_id_rejects_garbage():
    with pytest.raises(ValueError):
        ex.decode_schedule_id("not-a-schedule-id")
    with pytest.raises(ValueError):
        ex.decode_schedule_id("phxsched|v0|ledger|n2|-")


def test_dpor_enumerates_full_n2_space_with_zero_violations():
    dpor = ex.explore("ledger", n_sessions=2, max_schedules=1000)
    assert dpor.complete, "DPOR must finish the reduced N=2 space"
    assert dpor.ok, [c.schedule_id for c in dpor.counterexamples]
    assert dpor.schedules > 1


def test_dpor_prunes_strictly_more_than_naive():
    dpor = ex.explore("ledger", n_sessions=2, max_schedules=1000)
    assert dpor.complete
    # Naive DFS gets double the DPOR budget and still must not finish
    # in fewer runs: persistence/sleep-set reduction is a strict win.
    naive = ex.explore(
        "ledger", n_sessions=2, max_schedules=2 * dpor.schedules,
        naive=True,
    )
    assert (not naive.complete) or naive.schedules > dpor.schedules


def test_schedules_replay_byte_identically():
    # Probe an interesting interleaving, then replay its SCHEDULE_ID
    # twice: every determinism artifact must be byte-identical.
    probe = run(*LEDGER, policy=ControlledPolicy([1, 1, 0])).raise_error()
    assert probe.violations == []
    sid = ex.encode_schedule_id("ledger", 2, probe.choices, ())
    replayed, diverged = ex.verify_schedule(sid)
    assert diverged == []
    replayed.raise_error()
    assert replayed.violations == []
    assert replayed.choices == probe.choices
    assert replayed.determinism == probe.determinism


@pytest.mark.no_conformance_check  # the mutated runtimes *should* violate
def test_dropped_commit_force_caught_by_trc107(monkeypatch):
    # Mutation: every cell of the message-action table loses its
    # commit, so a session's records stay volatile while causally-later
    # sessions send on top of them.  TRC107 must catch it and hand back
    # a SCHEDULE_ID that reproduces the violation.
    monkeypatch.setattr(message_actions, "TABLE", tuple(
        tuple(cell._replace(commits=False) for cell in row)
        for row in message_actions.TABLE
    ))
    found = ex.explore(
        "ledger", n_sessions=2, max_schedules=60, stop_on_violation=True
    )
    assert found.counterexamples, "mutated policy must produce a violation"
    counter = found.counterexamples[0]
    assert any("TRC107" in v for v in counter.violations), counter.violations
    # The counterexample is replayable: same schedule, same verdict.
    replay = ex.run_schedule(counter.schedule_id)
    assert any("TRC107" in v for v in replay.violations)


@pytest.mark.no_conformance_check  # the mutated runtimes *should* violate
def test_dropped_release_edge_caught_by_trc108(monkeypatch):
    # Mutation: release_context clears the owner but never stores the
    # releasing session's clock, so the next acquirer inherits no
    # happens-before edge — a classic lost-synchronization race.
    def leaky_release(self, context):
        session = self.current_session()
        if session is not None and context.service_owner == session.index:
            context.service_owner = None

    monkeypatch.setattr(
        DeterministicScheduler, "release_context", leaky_release
    )
    found = ex.explore(
        "ledger", n_sessions=2, max_schedules=60, stop_on_violation=True
    )
    assert found.counterexamples, "leaky release must race"
    counter = found.counterexamples[0]
    assert any("TRC108" in v for v in counter.violations), counter.violations


def test_exploration_composes_with_crash_points():
    specs = ex.derive_crash_specs("ledger", 2, limit=1)
    assert specs
    # The armed spec actually fires under the golden schedule...
    armed = run(
        *LEDGER, specs=tuple(specs), policy=ControlledPolicy([])
    ).raise_error()
    assert armed.fired == [spec.render() for spec in specs]
    assert armed.violations == []
    # ...and a bounded exploration *around* the crash stays conformant.
    result = ex.explore(
        "ledger", n_sessions=2, specs=tuple(specs), max_schedules=40,
        stop_on_violation=True,
    )
    assert result.ok, [c.schedule_id for c in result.counterexamples]


def test_default_seeded_run_ignores_exploration_machinery():
    # With exploration off (the seeded default policy), two same-seed
    # runs are byte-identical — the explorer must not perturb them.
    first = run(*LEDGER, policy=SeededRandomPolicy(seed=99)).raise_error()
    second = run(*LEDGER, policy=SeededRandomPolicy(seed=99)).raise_error()
    assert first.violations == []
    assert first.determinism == second.determinism
