"""A context is restored and replayed on one path.

Process restart and context-crash recovery share one redo: a state
record is restored in ``recovery/recovery_manager.py::RecoveryManager
._restore`` (the ``object_creation`` charge plus ``restore_context_state``)
and a chain is replayed through the pending table
(``PendingRecovery._replay_component``).  So under ``src/repro`` only
``_restore`` calls ``restore_context_state``, nothing defines or calls a
private chain replay (``replay_chain``), and ``recover_context`` reads,
cuts and forces nothing itself: no ``read_record``, no
``component_chains``, no ``bisect`` and no ``force``.  A second caller
would be a second restore or redo, free to drift from the one every
restart shares.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
RESTORER = ("recovery/recovery_manager.py", "RecoveryManager", "_restore")
RECOVER_CONTEXT = ("recovery/recovery_manager.py", None, "recover_context")
#: what ``recover_context`` leaves to the shared path
LEFT_TO_THE_TABLE = {"read_record", "component_chains", "force"}


def _called(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _Calls(ast.NodeVisitor):
    """``(what, line, enclosing class, enclosing function)`` of every
    call and definition the one-path rule watches, allowed or not."""

    def __init__(self) -> None:
        self.classes: list[str | None] = [None]
        self.functions: list[str | None] = [None]
        self.found: list[tuple[str, int, str | None, str | None]] = []

    def _note(self, what: str, node: ast.AST) -> None:
        self.found.append(
            (what, node.lineno, self.classes[-1], self.functions[-1])
        )

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.functions.append(node.name)
        if node.name == "replay_chain":
            self._note("defines replay_chain", node)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        name = _called(node)
        if name is not None and (
            name in ("restore_context_state", "replay_chain")
            or name in LEFT_TO_THE_TABLE
            or name.startswith("bisect")
        ):
            self._note(name, node)
        self.generic_visit(node)


def _calls(source: str) -> list[tuple[str, int, str | None, str | None]]:
    visitor = _Calls()
    visitor.visit(ast.parse(source))
    return visitor.found


def _breaches(relative: str, source: str) -> list[str]:
    stray = []
    for what, line, cls, function in _calls(source):
        where = (relative, cls, function)
        if what == "restore_context_state":
            allowed = where == RESTORER
        elif what.endswith("replay_chain"):
            allowed = False
        else:  # a read, a cut or a force: barred in recover_context only
            allowed = where != RECOVER_CONTEXT
        if not allowed:
            stray.append(f"{relative}:{line} {what} in {function}")
    return stray


def test_one_restore_and_one_redo():
    stray = []
    restorers = 0
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        source = path.read_text()
        stray += _breaches(relative, source)
        restorers += sum(
            1
            for what, __, cls, function in _calls(source)
            if what == "restore_context_state"
            and (relative, cls, function) == RESTORER
        )
    assert stray == []
    assert restorers == 1, "the restore moved"


def test_the_guard_sees_a_second_restore_or_redo():
    source = (
        "def recover_context(context):\n"
        "    log = context.process.log\n"
        "    chain = log.component_chains(0)[1]\n"
        "    state = log.read_record(chain[0])\n"
        "    restore_context_state(context.process, context, state)\n"
        "    chain = chain[bisect_right(chain, 0):]\n"
        "    RecoveryManager(context.process).replay_chain(1, chain)\n"
        "    log.force()\n"
        "class RecoveryManager:\n"
        "    def replay_chain(self, context_id, chain):\n"
        "        pass\n"
        "    def _restore(self, context, state):\n"
        "        checkpoint.restore_context_state(self.process, context, state)\n"
        "class Other:\n"
        "    def _restore(self, context, state):\n"
        "        restore_context_state(self.process, context, state)\n"
    )
    relative = "recovery/recovery_manager.py"
    assert _breaches(relative, source) == [
        f"{relative}:3 component_chains in recover_context",
        f"{relative}:4 read_record in recover_context",
        f"{relative}:5 restore_context_state in recover_context",
        f"{relative}:6 bisect_right in recover_context",
        f"{relative}:7 replay_chain in recover_context",
        f"{relative}:8 force in recover_context",
        f"{relative}:10 defines replay_chain in replay_chain",
        f"{relative}:16 restore_context_state in _restore",
    ]


def test_the_guard_ignores_other_reads_and_forces():
    assert _breaches(
        "recovery/incremental.py",
        "def _replay_component(self, mark):\n"
        "    log = self.process.log_for(mark.context_id)\n"
        "    for lsn, record in log.read_records(mark.chain):\n"
        "        pass\n"
        "    log.force()\n",
    ) == []
