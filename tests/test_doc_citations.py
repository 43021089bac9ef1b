"""Code citations in the prose docs cannot drift from the tree.

``docs/*.md``, ``README.md`` and ``DESIGN.md`` cite code as
`` `path.py::name` `` (a line break may follow the ``::``) or as a bare
`` `path.py` ``.  The path is taken relative to the repo, to ``src/``
or to ``src/repro/``; failing that, a partial path (``infer/facts.py``)
or bare file name must name exactly one file under ``src/repro/`` by
suffix, and a bare file name not found there exactly one file under
``tests/`` or ``benchmarks/``.  ``name`` (anything after it, such as
``(kinds=)``, is prose) must be a ``def``, ``class`` or module-level
assignment in that file; a dotted ``Class.method`` must be defined
inside its class.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
_CITATION = re.compile(r"`([\w./-]+\.py)::\s*([\w.]+)")
_BARE_CITATION = re.compile(r"`([\w./-]+\.py)`")


def _documents() -> list[Path]:
    return sorted((REPO / "docs").glob("*.md")) + [
        REPO / "README.md", REPO / "DESIGN.md",
    ]


def _source(path: str) -> Path | None:
    for root in (REPO, REPO / "src", REPO / "src" / "repro"):
        if (root / path).is_file():
            return root / path
    name = Path(path).name
    found = [
        source
        for source in (REPO / "src" / "repro").rglob(name)
        if source.as_posix().endswith(f"/{path}")
    ]
    if not found and "/" not in path:
        found = [
            source
            for root in ("tests", "benchmarks")
            for source in (REPO / root).rglob(name)
        ]
    return found[0] if len(found) == 1 else None


def _names(node: ast.stmt) -> set[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return {node.target.id}
    return set()


def _defines(tree: ast.Module, name: str) -> bool:
    if "." not in name:
        # A module-level name, or a method cited without its class.
        return any(name in _names(node) for node in tree.body) or any(
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == name
            for node in ast.walk(tree)
        )
    body: list[ast.stmt] = tree.body
    for part in name.split("."):
        node = next((n for n in body if part in _names(n)), None)
        if node is None:
            return False
        body = getattr(node, "body", [])
    return True


def test_every_path_py_name_citation_resolves():
    cited = [
        (doc.relative_to(REPO), path, name)
        for doc in _documents()
        for path, name in _CITATION.findall(doc.read_text())
    ]
    assert len(cited) > 30, "the citations failed to parse"
    trees: dict[Path, ast.Module] = {}
    broken = []
    for doc, path, name in cited:
        source = _source(path)
        if source is None:
            broken.append(f"{doc}: {path} (no such file)")
            continue
        if source not in trees:
            trees[source] = ast.parse(source.read_text())
        if not _defines(trees[source], name):
            broken.append(f"{doc}: {path}::{name}")
    assert broken == []


def test_every_bare_path_py_citation_resolves():
    cited = [
        (doc.relative_to(REPO), path)
        for doc in _documents()
        for path in _BARE_CITATION.findall(doc.read_text())
    ]
    assert len(cited) > 100, "the citations failed to parse"
    broken = [f"{doc}: {path}" for doc, path in cited if _source(path) is None]
    assert broken == []
