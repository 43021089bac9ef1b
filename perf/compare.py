"""Compare two results files of ``run.py``: ``compare.py A.json B.json``.

One row per workload x end-to-end metric: both reported values (the
best of each side's repeats, as ``run.py`` reports them) with median and
quartiles, the ratio B/A (A is the base), and a verdict from the bounds
in ``BENCHMARK.json``:

* ``worse``      B's value is worse than A's by more than the bound;
* ``better``     B's value is better than A's by more than the bound;
* ``same``       the values are within the bound of each other;
* ``unresolved`` the runs' own spread (either side's quartile distance
  over its median) exceeds the bound, so the change can be called
  neither — unless every run of one side beats every run of the other,
  which settles it.

Exits non-zero on any ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402


def load_bounds() -> dict[str, tuple[str, float]]:
    return {
        metric["name"]: (metric["better"], metric["bound"])
        for metric in spec.load()["end_to_end"]
    }


def spread(a: dict, b: dict) -> float:
    """The wider of the two sides' quartile distances, as a share of
    its median."""
    return max(
        (side["q3"] - side["q1"]) / abs(side["median"]) for side in (a, b)
    )


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    base = a["best"]
    if base == b["best"]:
        return "same"
    sign = 1 if better == "lower" else -1
    # positive change = B is worse
    change = sign * (b["best"] - base) / abs(base)
    if spread(a, b) > bound:
        # oriented so that larger is worse, whichever way the metric runs
        cost_a = [sign * value for value in a["runs"]]
        cost_b = [sign * value for value in b["runs"]]
        if min(cost_b) > max(cost_a):
            return "worse"
        if max(cost_b) < min(cost_a):
            return "better"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(a: dict, b: dict, bounds: dict) -> list[dict]:
    rows = []
    for workload, section in a["workloads"].items():
        other = b["workloads"].get(workload)
        if other is None:
            continue
        for name, (better, bound) in bounds.items():
            left = section["end_to_end"][name]
            right = other["end_to_end"][name]
            rows.append({
                "workload": workload,
                "metric": name,
                "a": left,
                "b": right,
                "ratio": right["best"] / left["best"],
                "spread": spread(left, right),
                "bound": bound,
                "verdict": verdict(left, right, better, bound),
            })
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("a", type=Path, help="base results file")
    parser.add_argument("b", type=Path, help="results file to judge")
    args = parser.parse_args()
    a = json.loads(args.a.read_text(encoding="utf-8"))
    b = json.loads(args.b.read_text(encoding="utf-8"))
    for key in ("seed", "scale", "repeats"):
        if a[key] != b[key]:
            print(f"warning: {key} differs ({a[key]!r} vs {b[key]!r})")
    rows = compare(a, b, load_bounds())
    print(f"{'workload':24s}{'metric':20s}{'A best (median) [q1, q3]':>50s}"
          f"{'B best (median) [q1, q3]':>50s}{'B/A':>10s}{'bound':>8s}  verdict")
    for row in rows:
        cells = [
            f"{side['best']:.6g} ({side['median']:.6g}) "
            f"[{side['q1']:.5g}, {side['q3']:.5g}]"
            for side in (row["a"], row["b"])
        ]
        print(f"{row['workload']:24s}{row['metric']:20s}{cells[0]:>50s}"
              f"{cells[1]:>50s}{row['ratio']:>10.4f}{row['bound']:>8.3f}"
              f"  {row['verdict']}")
    counts: dict[str, int] = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print(", ".join(f"{count} {name}" for name, count in sorted(counts.items())))
    for row in rows:
        if row["verdict"] == "unresolved":
            print(f"unresolved: {row['workload']} {row['metric']} "
                  f"(spread {row['spread']:.3f} > bound {row['bound']:.3f})")
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
