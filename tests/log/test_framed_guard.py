"""A framed file is cut in one place: ``FramedFile``.

Process logs, durable logs and the registration table share one
torn-tail rule, ``log/serialization.py::FramedFile.torn_tail``, and one
repair, ``FramedFile.repair``.  No other code may truncate a stable
file or search the bytes for the frame magic (the rule's fallback when
no index bounds the search): a second truncation or a second scan
would be a second torn-tail rule, free to drift from the one every
restart shares.
"""

from __future__ import annotations

import ast
import struct
from pathlib import Path

import repro
from repro.log import serialization

SRC = Path(repro.__file__).resolve().parent
OWNER = ("log/serialization.py", "FramedFile")
SEARCHES = {"find", "rfind", "index", "rindex"}
MAGIC = struct.pack("<H", serialization._FRAME_MAGIC)


def _mentions_magic(scope: ast.AST) -> bool:
    """Does ``scope`` name the frame magic, or hold its bytes?"""
    for node in ast.walk(scope):
        ident = (
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else None
        )
        if ident is not None and "magic" in ident.lower():
            return True
        if isinstance(node, ast.Constant) and isinstance(node.value, bytes):
            if MAGIC in node.value:
                return True
    return False


class _Cuts(ast.NodeVisitor):
    """``(what, line, enclosing class)`` of every ``.truncate(`` call
    and every byte search in a function that names the frame magic."""

    def __init__(self) -> None:
        self.classes: list[str | None] = [None]
        self.functions: list[ast.AST] = []
        self.found: list[tuple[str, int, str | None]] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.functions.append(node)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            scope = self.functions[-1] if self.functions else node
            if func.attr == "truncate":
                self.found.append(("truncate", node.lineno, self.classes[-1]))
            elif func.attr in SEARCHES and _mentions_magic(scope):
                self.found.append(("magic scan", node.lineno, self.classes[-1]))
        self.generic_visit(node)


def _cuts(source: str) -> list[tuple[str, int, str | None]]:
    visitor = _Cuts()
    visitor.visit(ast.parse(source))
    return visitor.found


def test_only_the_framed_file_truncates_or_scans_for_the_magic():
    stray = []
    owned = set()
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        for what, line, cls in _cuts(path.read_text()):
            if (relative, cls) == OWNER:
                owned.add(what)
            else:
                stray.append(f"{relative}:{line} {what} in {cls or 'module'}")
    assert stray == []
    assert owned == {"truncate", "magic scan"}, "the rule moved"


def test_the_guard_sees_a_stray_cut_or_scan():
    found = _cuts(
        "def repair(stable, data):\n"
        "    stable.truncate(len(data) - 3)\n"
        "def scan(data):\n"
        "    needle = struct.pack('<H', _FRAME_MAGIC)\n"
        "    return data.find(needle, 1)\n"
        "class Reader:\n"
        "    def resync(self, data):\n"
        "        return data.index(b'\\x7c\\x9a')\n"
        "class FramedFile:\n"
        "    def repair(self, at):\n"
        "        self.stable.truncate(at)\n"
    )
    assert found == [
        ("truncate", 2, None),
        ("magic scan", 5, None),
        ("magic scan", 8, "Reader"),
        ("truncate", 11, "FramedFile"),
    ]


def test_the_guard_ignores_other_searches_and_trims():
    assert _cuts(
        "def split(text):\n"
        "    return text.find(':')\n"
        "def collect(log, lsn):\n"
        "    log.truncate_prefix(lsn)\n"
    ) == []
