"""The message-action table against the conformance oracle.

``repro.common.message_actions`` is the one place that says what
Algorithms 1-5 do; ``repro.analysis.trace_check`` keeps an independent
encoding of the same algorithms.  These tests hold the two together
cell by cell: the table's action for every cell must satisfy the
oracle, and every single-cell edit — a different record shape, or the
commit bit flipped — must make the oracle object.  The executor is tied
to the table separately (the policy emits exactly what the cell says),
and docs/paper-map.md's printed copy is kept equal to the module's.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import PhoenixRuntime, RuntimeConfig
from repro.analysis.trace import NO_LSN, TraceEvent
from repro.analysis.trace_check import _event_violations
from repro.common import message_actions as ma
from repro.common.messages import MethodCallMessage, ReplyMessage
from repro.common.types import ComponentType

from ..conftest import Counter

REPO = Path(__file__).resolve().parents[2]
ROWS = range(len(ma.MESSAGES))
COLUMNS = range(len(ma.PEER_CLASSES))
CONTEXTS = (
    ComponentType.PERSISTENT,
    ComponentType.FUNCTIONAL,
    ComponentType.READ_ONLY,
)


def peers(row: int, column: int) -> list[tuple[ComponentType | None, bool]]:
    """Every ``(peer type, method_read_only)`` shape that selects
    ``column`` on ``row``."""
    if column == ma.OTHER:
        return [(ComponentType.PERSISTENT, False), (None, False)]
    if column == ma.EXTERNAL:
        return [(ComponentType.EXTERNAL, False)]
    if column == ma.FUNCTIONAL:
        # a functional *server* stays functional whatever its method says
        marks = (False, True) if row >= ma.MSG3 else (False,)
        return [(ComponentType.FUNCTIONAL, mark) for mark in marks]
    return [
        (ComponentType.READ_ONLY, False),
        (ComponentType.PERSISTENT, True),
        (ComponentType.EXTERNAL, True),
    ]


def emitted(
    row: int,
    optimized: bool,
    context_type: ComponentType,
    peer_type: ComponentType | None,
    method_read_only: bool,
) -> TraceEvent:
    """The event the executor would emit for the table's action, on a
    log with a volatile tail (stable 50 of 100 bytes): a commit forces
    through the end of log, anything else leaves the tail volatile."""
    action = ma.action_for(
        row, optimized, True, context_type, peer_type, method_read_only
    )
    wrote = action.record != ma.NO_RECORD
    return TraceEvent(
        kind=ma.MESSAGES[row],
        context_type=context_type,
        peer_type=peer_type,
        method_read_only=method_read_only,
        optimized=optimized,
        wrote_record=wrote,
        short=action.record == ma.SHORT,
        forced=action.commits,
        record_lsn=80 if wrote else NO_LSN,
        end_lsn=100,
        stable_lsn=100 if action.commits else 50,
        commit_lsn=100 if action.commits else None,
    )


def mutants(action: ma.Action) -> list[ma.Action]:
    """Every single edit of one cell."""
    return [
        action._replace(record=shape)
        for shape in (ma.NO_RECORD, ma.LONG, ma.SHORT)
        if shape != action.record
    ] + [action._replace(commits=not action.commits)]


def label(action: ma.Action) -> str:
    return ma.RECORD_NAMES[action.record] + (
        " + commit" if action.commits else ""
    )


@pytest.mark.parametrize("context_type", CONTEXTS, ids=lambda t: t.value)
@pytest.mark.parametrize("optimized", (True, False), ids=("optimized", "baseline"))
@pytest.mark.parametrize("column", COLUMNS, ids=ma.PEER_CLASSES)
@pytest.mark.parametrize("row", ROWS, ids=[kind.name for kind in ma.MESSAGES])
def test_every_cell_satisfies_the_oracle(row, column, optimized, context_type):
    for peer_type, method_read_only in peers(row, column):
        event = emitted(
            row, optimized, context_type, peer_type, method_read_only
        )
        assert _event_violations(event) == [], (peer_type, method_read_only)


@pytest.mark.parametrize("mutant", range(3))
@pytest.mark.parametrize("column", COLUMNS, ids=ma.PEER_CLASSES)
@pytest.mark.parametrize("row", ROWS, ids=[kind.name for kind in ma.MESSAGES])
def test_every_cell_edit_is_caught(row, column, mutant, monkeypatch):
    """The cells are live for an optimized persistent context; the
    oracle tells every one of their edits apart (none is exempted)."""
    cell = ma.TABLE[row][column]
    edited = mutants(cell)[mutant]
    rows = [list(cells) for cells in ma.TABLE]
    rows[row][column] = edited
    monkeypatch.setattr(ma, "TABLE", tuple(tuple(cells) for cells in rows))
    for peer_type, method_read_only in peers(row, column):
        event = emitted(
            row, True, ComponentType.PERSISTENT, peer_type, method_read_only
        )
        assert _event_violations(event), (
            f"{label(cell)} -> {label(edited)} passed the oracle for peer "
            f"{peer_type}, method_read_only={method_read_only}"
        )


@pytest.mark.parametrize("mutant", range(3))
@pytest.mark.parametrize(
    "rule, optimized, context_types",
    [
        ("BASELINE", False, CONTEXTS),
        ("NOTHING", True, CONTEXTS[1:]),
    ],
)
def test_every_whole_row_rule_edit_is_caught(
    rule, optimized, context_types, mutant, monkeypatch
):
    """The two whole-row rules — not optimized, stateless context —
    answer for every cell they cover."""
    monkeypatch.setattr(ma, rule, mutants(getattr(ma, rule))[mutant])
    for context_type in context_types:
        for row in ROWS:
            for column in COLUMNS:
                for peer_type, method_read_only in peers(row, column):
                    event = emitted(
                        row, optimized, context_type, peer_type,
                        method_read_only,
                    )
                    assert _event_violations(event), (rule, row, column)


@pytest.mark.parametrize("column", COLUMNS, ids=ma.PEER_CLASSES)
def test_the_policy_emits_what_the_cell_says(column):
    """Executor to table: drive all four messages of one column through
    the public ``on_*`` entries of a real persistent context and compare
    each emitted trace event with its cell."""
    runtime = PhoenixRuntime(config=RuntimeConfig.optimized())
    runtime.external_client_machine = "alpha"
    process = runtime.spawn_process("server", machine="beta")
    process.create_component(Counter)
    context = process.contexts()[0]
    policy = process.policy
    call = MethodCallMessage(target_uri="m/p/peer/1", method="ping")
    reply = ReplyMessage(call_id=None, value=1)
    entries = (
        (policy.on_incoming_call, call),
        (policy.on_reply_send, reply),
        (policy.on_outgoing_call, call),
        (policy.on_reply_from_outgoing, reply),
    )
    for row, (entry, message) in enumerate(entries):
        peer_type, method_read_only = peers(row, column)[0]
        decision = entry(context, message, peer_type, method_read_only)
        event = process.streams[0].trace.events()[-1]
        cell = ma.TABLE[row][column]
        assert event.kind is ma.MESSAGES[row]
        assert event.wrote_record == (cell.record != ma.NO_RECORD)
        assert event.short == (cell.record == ma.SHORT)
        assert (event.commit_lsn is not None) == cell.commits
        assert (decision.wrote_record, decision.commit_lsn) == (
            event.wrote_record, event.commit_lsn
        )
        if cell.commits:
            assert event.stable_lsn >= event.commit_lsn


def test_paper_map_prints_the_table():
    """docs/paper-map.md's copy of the table is generated from the
    module's own rows, not maintained by hand."""
    lines = [
        "| message | " + " | ".join(ma.PEER_CLASSES) + " |",
        "|---|" + "---|" * len(ma.PEER_CLASSES),
    ]
    for kind, cells in zip(ma.MESSAGES, ma.TABLE):
        shown = " | ".join(label(cell) for cell in cells)
        lines.append(f"| {kind.value} `{kind.name}` | {shown} |")
    rendered = "\n".join(lines)
    text = (REPO / "docs" / "paper-map.md").read_text()
    assert rendered in text, (
        "docs/paper-map.md is stale; paste this in:\n" + rendered
    )
