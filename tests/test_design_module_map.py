"""DESIGN.md section 3's module map cannot drift from the tree.

The fenced tree names directories (``name/``) and files (``name.py``)
by indentation, two spaces per level, rooted at the repo; description
text and its wrapped continuation lines are ignored.  Every file it
names must exist, and every package directly under ``src/repro/`` must
appear in it.
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
