"""DESIGN.md sections 3 and 4 cannot drift from the tree.

Section 3's fenced tree names directories (``name/``) and files
(``name.py``) by indentation, two spaces per level, rooted at the repo;
description text and its wrapped continuation lines are ignored.  Every
file it names must exist, and every package directly under
``src/repro/`` must appear in it.  Section 4's table cites code as
`` `file.py` `` and `` `module.name` ``: each file must exist somewhere
under ``src/repro/`` and each name must be defined in its module.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
_ENTRY = re.compile(r"^( *)([\w.-]+(?:/[\w.-]+)*(?:/|\.py))(?:\s|$)")


def module_map() -> tuple[set[str], set[str]]:
    """``(directories, files)`` of the section-3 tree, repo-relative."""
    text = (REPO / "DESIGN.md").read_text()
    section = text[text.index("## 3. System inventory"):]
    tree = section.split("```")[1]
    directories: set[str] = set()
    files: set[str] = set()
    stack: list[str] = []  # directory at each depth
    for line in tree.splitlines():
        match = _ENTRY.match(line)
        if match is None:
            continue  # a wrapped description line
        depth = len(match.group(1)) // 2
        name = match.group(2)
        if depth > len(stack):
            continue  # deeper than any open directory: description text
        path = "/".join(stack[:depth] + [name.rstrip("/")])
        if name.endswith("/"):
            stack[depth:] = [name.rstrip("/")]
            directories.add(path)
        else:
            files.add(path)
    return directories, files


def test_every_listed_path_exists():
    directories, files = module_map()
    assert len(files) > 20, "the tree failed to parse"
    missing = sorted(
        path for path in files if not (REPO / path).is_file()
    ) + sorted(
        path for path in directories if not (REPO / path).is_dir()
    )
    assert missing == []


def test_every_package_under_src_repro_is_listed():
    directories, __ = module_map()
    packages = {
        f"src/repro/{child.name}"
        for child in (REPO / "src" / "repro").iterdir()
        if (child / "__init__.py").is_file()
    }
    assert sorted(packages - directories) == []


def test_every_code_citation_in_section_4_resolves():
    text = (REPO / "DESIGN.md").read_text()
    section = text[text.index("## 4. Exactly-once machinery"):]
    section = section[:section.index("\n## 5.")]
    modules: dict[str, list[Path]] = {}
    for path in (REPO / "src" / "repro").rglob("*.py"):
        modules.setdefault(path.stem, []).append(path)

    def resolves(module: str, name: str) -> bool:
        if name == "py":  # `file.py`
            return module in modules
        definition = re.compile(rf"^\s*(?:def|class) {name}\b", re.M)
        return any(
            definition.search(path.read_text())
            for path in modules.get(module, ())
        )

    cited = re.findall(r"`(\w+)\.(\w+)`", section)
    assert len(cited) > 8, "the table failed to parse"
    assert [
        f"{module}.{name}"
        for module, name in cited
        if not resolves(module, name)
    ] == []
