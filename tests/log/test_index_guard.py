"""The frame index has one way in: a build, a flush, a trim.

``LogManager`` keeps its frame index in four parallel columns.  Three
methods write them: ``_build``, the one validating walk that fills them
(``repair_tail`` at a restart, or the first read or flush of a manager
opened over old bytes); ``_flush``, which promotes the entries its write
made stable; and ``truncate_prefix``, which trims the entries below the
new base.  ``LogManager.__init__`` only starts each column empty.  No
other code under ``src/repro`` may assign a column, augment
it, delete from it or call a mutating method on it — directly or through
a local name bound to it — and nothing may define or use the
incremental path those three replaced: a second writer would be a
second index, free to drift from the walk every restart shares.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
COLUMNS = {"_index_lsns", "_index_lengths", "_index_kinds", "_index_contexts"}
WRITERS = {
    ("log/log_manager.py", "LogManager", name)
    for name in ("_build", "_flush", "truncate_prefix")
}
#: Where the columns start empty, and nothing more.
CONSTRUCTOR = ("log/log_manager.py", "LogManager", "__init__")
#: The incremental index path: a lazy extension, its bookkeeping, the
#: clamp for a file that shrank under it and the reads it served.
DELETED = {
    "_ensure_index",
    "_clamp_index",
    "_indexed_upto",
    "_index_stale_block",
    "_read_unindexed",
    "read_frame_incremental",
}
MUTATORS = {
    "append", "extend", "insert", "pop", "remove", "clear", "sort",
    "reverse", "__setitem__", "__delitem__", "__iadd__",
}


def _column(node: ast.AST, aliases: set[str]) -> bool:
    """Is ``node`` a column (``x._index_lsns``), a local name bound to
    one, or a subscript of either?"""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr in COLUMNS
    return isinstance(node, ast.Name) and node.id in aliases


def _empty(node: ast.AST | None) -> bool:
    """Is ``node`` an empty list display or a bare ``bytearray()``?"""
    if isinstance(node, ast.List):
        return not node.elts
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "bytearray"
        and not node.args
        and not node.keywords
    )


def _targets(node: ast.AST) -> list[ast.AST]:
    """The assignment targets of ``node``, tuples unpacked."""
    if isinstance(node, ast.Assign):
        found = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        found = [node.target]
    elif isinstance(node, ast.Delete):
        found = list(node.targets)
    else:
        return []
    flat = []
    while found:
        target = found.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            found.extend(target.elts)
        else:
            flat.append(target)
    return flat


class _Writes(ast.NodeVisitor):
    """``(what, line, class, function)`` of every column write and every
    use of a deleted name."""

    def __init__(self) -> None:
        self.classes: list[str | None] = [None]
        self.functions: list[str | None] = [None]
        self.aliases: list[set[str]] = [set()]
        self.found: list[tuple[str, int, str | None, str | None]] = []

    def _add(self, what: str, node: ast.AST) -> None:
        self.found.append(
            (what, node.lineno, self.classes[-1], self.functions[-1])
        )

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node.name in DELETED:
            self._add(f"defines {node.name}", node)
        self.functions.append(node.name)
        self.aliases.append(
            {
                target.id
                for stmt in ast.walk(node)
                if isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Attribute)
                and stmt.value.attr in COLUMNS
                for target in stmt.targets
                if isinstance(target, ast.Name)
            }
        )
        self.generic_visit(node)
        self.aliases.pop()
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _visit_targets(self, node: ast.AST) -> None:
        for target in _targets(node):
            # Binding a name to a column reads it; ``+=`` on that name
            # extends the column in place.
            rebinds = isinstance(target, ast.Name) and not isinstance(
                node, ast.AugAssign
            )
            if rebinds or not _column(target, self.aliases[-1]):
                continue
            starts = (
                self.functions[-1] == "__init__"
                and isinstance(node, (ast.Assign, ast.AnnAssign))
                and isinstance(target, ast.Attribute)
                and _empty(node.value)
            )
            self._add(
                "starts a column empty" if starts else "writes a column", node
            )
        self.generic_visit(node)

    visit_Assign = visit_AugAssign = _visit_targets
    visit_AnnAssign = visit_Delete = _visit_targets

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATORS
            and _column(func.value, self.aliases[-1])
        ):
            self._add("mutates a column", node)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in DELETED:
            self._add(f"uses {node.attr}", node)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id in DELETED:
            self._add(f"uses {node.id}", node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            if alias.name in DELETED:
                self._add(f"uses {alias.name}", node)


def _writes(source: str) -> list[tuple[str, int, str | None, str | None]]:
    visitor = _Writes()
    visitor.visit(ast.parse(source))
    return visitor.found


def test_only_build_flush_and_trim_write_the_index():
    stray = []
    writers = set()
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        for what, line, cls, function in _writes(path.read_text()):
            where = (relative, cls, function)
            if where in WRITERS and "column" in what:
                writers.add(where)
            elif where == CONSTRUCTOR and what == "starts a column empty":
                pass
            else:
                stray.append(f"{relative}:{line} {what} in {function}")
    assert stray == []
    assert writers == WRITERS, "a writer moved"


def test_the_guard_sees_every_kind_of_write():
    found = _writes(
        "class LogManager:\n"
        "    def __init__(self):\n"
        "        self._index_lsns = []\n"
        "        self._index_kinds: bytearray = bytearray()\n"
        "        self._index_contexts = [0]\n"
        "    def _extend(self, more):\n"
        "        self._index_kinds += more\n"
        "        self._index_contexts.extend(more)\n"
        "    def _clip(self, n):\n"
        "        self._index_lsns = []\n"
        "        del self._index_lengths[n:]\n"
        "        self._index_kinds[0] = 1\n"
        "        a, self._index_lsns = 1, []\n"
        "    def _through_a_name(self):\n"
        "        lsns = self._index_lsns\n"
        "        lsns.pop()\n"
        "        del lsns[0]\n"
        "        lsns += [1]\n"
        "def stray(log):\n"
        "    log._index_lsns.insert(0, 1)\n"
    )
    assert found == [
        ("starts a column empty", 3, "LogManager", "__init__"),
        ("starts a column empty", 4, "LogManager", "__init__"),
        ("writes a column", 5, "LogManager", "__init__"),
        ("writes a column", 7, "LogManager", "_extend"),
        ("mutates a column", 8, "LogManager", "_extend"),
        ("writes a column", 10, "LogManager", "_clip"),
        ("writes a column", 11, "LogManager", "_clip"),
        ("writes a column", 12, "LogManager", "_clip"),
        ("writes a column", 13, "LogManager", "_clip"),
        ("mutates a column", 16, "LogManager", "_through_a_name"),
        ("writes a column", 17, "LogManager", "_through_a_name"),
        ("writes a column", 18, "LogManager", "_through_a_name"),
        ("mutates a column", 20, None, "stray"),
    ]


def test_the_guard_sees_the_deleted_path():
    found = _writes(
        "from .serialization import read_frame_incremental\n"
        "class LogManager:\n"
        "    def _ensure_index(self):\n"
        "        self._indexed_upto = 0\n"
        "    def scan(self):\n"
        "        self._clamp_index(0)\n"
        "        return self._read_unindexed(0)\n"
    )
    assert [(what, line) for what, line, __, ___ in found] == [
        ("uses read_frame_incremental", 1),
        ("defines _ensure_index", 3),
        ("uses _indexed_upto", 4),
        ("uses _clamp_index", 6),
        ("uses _read_unindexed", 7),
    ]


def test_the_guard_ignores_reads():
    assert _writes(
        "class LogManager:\n"
        "    def read(self, at):\n"
        "        lsns = self._index_lsns\n"
        "        chosen = lsns[at:]\n"
        "        chosen.append(1)\n"
        "        kinds = self._index_kinds[at:].translate(bytes(256))\n"
        "        del lsns\n"
        "        return len(self._index_lengths), kinds\n"
    ) == []
