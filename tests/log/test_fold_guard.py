"""Checkpoint records are dispatched on in one place.

The codec (``log/records.py``) encodes and decodes the five checkpoint
record classes, and the log fold (``log/inspect.py::fold``) is the one
pass that reads them.  No other code may test a record against one of
them: a second dispatch would be a second analysis pass, free to drift
from the fold that recovery, ``summarize_log`` and the trace checker
share.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
CHECKPOINT_CLASSES = {
    "BeginCheckpointRecord",
    "CheckpointContextTableRecord",
    "CheckpointRemoteTypeRecord",
    "CheckpointLastCallRecord",
    "EndCheckpointRecord",
}
ALLOWED = {"log/records.py", "log/inspect.py"}


def _checkpoint_isinstance(tree: ast.AST) -> list[tuple[str, int]]:
    """``(class, line)`` of every ``isinstance`` call whose class
    argument names a checkpoint record class (alone or in a tuple)."""
    found = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            continue
        for name in ast.walk(node.args[1]):
            ident = (
                name.id if isinstance(name, ast.Name)
                else name.attr if isinstance(name, ast.Attribute)
                else None
            )
            if ident in CHECKPOINT_CLASSES:
                found.append((ident, node.lineno))
    return sorted(found, key=lambda hit: hit[1])


def test_only_the_codec_and_the_fold_dispatch_on_checkpoint_records():
    stray = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative in ALLOWED:
            continue
        for cls, line in _checkpoint_isinstance(ast.parse(path.read_text())):
            stray.append(f"{relative}:{line} isinstance(..., {cls})")
    assert stray == []
    fold = (SRC / "log/inspect.py").read_text()
    assert {cls for cls, __ in _checkpoint_isinstance(ast.parse(fold))} == (
        CHECKPOINT_CLASSES
    ), "the fold moved or stopped dispatching on a checkpoint record"


def test_the_guard_sees_a_check_alone_in_a_tuple_or_qualified():
    found = _checkpoint_isinstance(ast.parse(
        "def f(record):\n"
        "    if isinstance(record, EndCheckpointRecord):\n"
        "        return 1\n"
        "    if isinstance(record, (MessageRecord, BeginCheckpointRecord)):\n"
        "        return 2\n"
        "    return isinstance(record, records.CheckpointLastCallRecord)\n"
    ))
    assert found == [
        ("EndCheckpointRecord", 2),
        ("BeginCheckpointRecord", 4),
        ("CheckpointLastCallRecord", 6),
    ]


def test_the_guard_ignores_construction_and_other_classes():
    assert _checkpoint_isinstance(ast.parse(
        "record = BeginCheckpointRecord(context_id=-1)\n"
        "isinstance(record, MessageRecord)\n"
    )) == []
