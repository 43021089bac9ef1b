"""``BENCHMARK.json`` is the one place workloads and metrics are named.

The runner, the per-layer derivation and the comparer all read names,
units, directions and bounds from it, so the code cannot drift from the
contract the driver checks.
"""

from __future__ import annotations

import json
from pathlib import Path

PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load() -> dict:
    return json.loads(PATH.read_text(encoding="utf-8"))


def by_name(metrics: list[dict]) -> dict[str, dict]:
    """name -> metric entry, in the order the file lists them."""
    return {metric["name"]: metric for metric in metrics}
