"""The commit flags are read once.

``RuntimeConfig`` validates ``group_commit`` and ``pipelined_commit``,
and ``core/commit.py::commit_gate`` turns them into the runtime's one
gate (``runtime.commit``).  No other code may read either flag: a force
path that re-reads one would be a second, per-force answer to a question
the gate already settled.  Keyword arguments that build a config are not
reads.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
FLAGS = {"group_commit", "pipelined_commit"}
FACTORY = ("core/commit.py", "commit_gate")


def _flag_reads(tree: ast.AST) -> list[tuple[str | None, str, int]]:
    """``(enclosing function, flag, line)`` of every attribute read of a
    commit flag."""
    reads = []

    def walk(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Attribute)
            and node.attr in FLAGS
            and isinstance(node.ctx, ast.Load)
        ):
            reads.append((function, node.attr, node.lineno))
        for child in ast.iter_child_nodes(node):
            walk(child, function)

    walk(tree, None)
    return reads


def test_only_the_config_and_the_gate_factory_read_a_commit_flag():
    stray = []
    factory_reads = set()
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative == "core/config.py":
            continue
        for function, flag, line in _flag_reads(ast.parse(path.read_text())):
            if (relative, function) == FACTORY:
                factory_reads.add(flag)
            else:
                stray.append(f"{relative}:{line} reads {flag}")
    assert stray == []
    assert factory_reads == FLAGS, "the gate factory moved or was renamed"


def test_the_guard_sees_a_read_but_not_a_keyword():
    reads = _flag_reads(ast.parse(
        "def f(runtime):\n"
        "    RuntimeConfig.optimized(group_commit=True)\n"
        "    return runtime.config.pipelined_commit\n"
    ))
    assert reads == [("f", "pipelined_commit", 3)]

