"""The two-ledger benchmark: one command, five crash-terminated workloads.

    python3 perf/run.py                      # every workload, untraced
    python3 perf/run.py --trace              # the per-layer pass
    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Each (workload, repeat) runs in a fresh interpreter pinned to one core
(``child.py``).  End-to-end metrics always come from untraced runs and
are reported as the best of ``--repeats`` runs — what the shared box
adds to a run is only ever time — with the median, quartiles, raw values
and sample count beside it.  ``--trace`` adds one traced run
per workload: it must reproduce the untraced run's simulated metrics
bit for bit, and yields the per-layer metrics.  Any wrong reply, wrong
recovered state, TRC violation or ledger mismatch makes the command
exit non-zero.

With exactly one ``--workload`` the last line of standard output is the
driver's result object: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See README.md for the glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from child import SIMULATED  # noqa: E402

#: ``--seconds`` at which the workloads have the full size their names
#: and README.md describe (50 000 logged calls, 64 x 12 x 10 calls, ...).
#: The default is ``BENCHMARK.json``'s ``run_seconds``: three repeats of
#: that size are what fits the driver's cap on total time.
FULL_SECONDS = 16
SMOKE_SCALE = 1 / 20
#: The simulated ledgers must close to within this (float rounding only).
LEDGER_TOLERANCE_MS = 1e-6


def pin_to_one_core() -> list[int]:
    """The program's session threads are a turnstile — exactly one is
    runnable — so a second core only adds cross-core handoffs, which on
    this 2-core box made the same run read 0.8 or 1.6 ms per call."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})
    return allowed


def child_environment(out_dir: Path) -> dict:
    env = dict(os.environ)
    # Same hash layout in every run; bytecode cached inside perf/out so
    # the checkout stays clean and set-up does not depend on whether the
    # caller's environment allows writing .pyc files next to the sources.
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(out_dir / "pycache")
    return env


def run_child(workload, seed, scale, env, trace=False, spans_out=None) -> dict:
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--scale", repr(scale),
        "--trace", str(int(trace)),
        "--spawned-at-ns", str(perf_counter_ns()),
    ]
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload}: run exited with code {done.returncode}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def summarize(values: list[float], better: str) -> dict:
    low, __, high = (
        statistics.quantiles(values, n=4)
        if len(values) > 1
        else (values[0],) * 3
    )
    return {
        "best": min(values) if better == "lower" else max(values),
        "median": statistics.median(values),
        "q1": low,
        "q3": high,
        "samples": len(values),
        "runs": values,
    }


def measure(workload: str, args, metrics: dict, env: dict,
            out_dir: Path) -> dict:
    """All runs of one workload; returns its section of the results."""
    problems: list[str] = []
    runs = [
        run_child(workload, args.seed, args.scale, env)
        for __ in range(args.repeats)
    ]
    end_to_end = {
        name: summarize(
            [run["metrics"][name] for run in runs], metric["better"]
        )
        for name, metric in metrics.items()
    }
    first = runs[0]
    for run in runs:
        problems += run["failures"]
        if run["failed"] and not run["failures"]:
            problems.append(f"{run['failed']} failed operations")
        for name in SIMULATED:
            if run["metrics"][name] != first["metrics"][name]:
                problems.append(
                    f"{name} differs between runs of one seed: "
                    f"{first['metrics'][name]!r} vs {run['metrics'][name]!r}"
                )
    section = {
        "calls": first["calls"],
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "end_to_end": end_to_end,
        "block_wall_us_per_call": [
            run["block_wall_us_per_call"] for run in runs
        ],
        "affinity": first["affinity"],
    }
    if args.trace:
        traced = run_child(
            workload, args.seed, args.scale, env, trace=True,
            spans_out=out_dir / f"{workload}.spans.jsonl",
        )
        problems += traced["failures"]
        section["attempted"] += traced["attempted"]
        section["failed"] += traced["failed"]
        for name in SIMULATED:
            if traced["metrics"][name] != first["metrics"][name]:
                problems.append(
                    f"traced run moved {name}: "
                    f"{first['metrics'][name]!r} -> "
                    f"{traced['metrics'][name]!r}"
                )
        per_layer = traced["layers"]
        per_layer["trace.overhead_ratio"] = (
            traced["metrics"]["wall_us_per_call"]
            / end_to_end["wall_us_per_call"]["best"]
        )
        for name in ("sim_ledger.residual_ms",
                     "sim_ledger.recovery_residual_ms"):
            if abs(per_layer[name]) > LEDGER_TOLERANCE_MS:
                problems.append(f"{name} = {per_layer[name]!r}, want 0")
        section["per_layer"] = per_layer
        section["traced_end_to_end"] = traced["metrics"]
        section["span_table"] = traced["span_table"]
    if problems:
        section["failed"] = max(section["failed"], 1)
    section["failed_share"] = section["failed"] / section["attempted"]
    section["problems"] = problems
    section["correct"] = not problems and section["failed"] == 0
    return section


def git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def print_report(results: dict, end_to_end: dict, per_layer: dict) -> None:
    for workload, section in results["workloads"].items():
        print(f"\n== {workload}: {section['calls']} steady-phase calls, "
              f"{section['attempted']} operations attempted, "
              f"{section['failed']} failed "
              f"(failed_share {section['failed_share']:.6g})")
        for name, metric in end_to_end.items():
            row = section["end_to_end"][name]
            print(f"  {name:22s} {row['best']:>16.6f} {metric['unit']:10s} "
                  f"[median {row['median']:.6f}, q1 {row['q1']:.6f}, "
                  f"q3 {row['q3']:.6f}, n={row['samples']}]")
        if "per_layer" in section:
            for name, metric in per_layer.items():
                print(f"  {name:58s} "
                      f"{section['per_layer'][name]:>16.6f} {metric['unit']}")
        for problem in section["problems"]:
            print(f"  FAILED: {problem}")


def main() -> int:
    contract = spec.load()
    workloads = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help=f"sizes the workloads (default %(default)s; "
                             f"{FULL_SECONDS} is full size)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="untraced fresh-interpreter runs per workload\n"
                             "(default 3; 1 with --trace or --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add the traced per-layer pass")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 size, one run each; never for reported numbers")
    parser.add_argument("--out", type=Path, default=None,
                        help="results file (default perf/out/results.json)")
    args = parser.parse_args()
    end_to_end = spec.by_name(contract["end_to_end"])
    per_layer = spec.by_name(contract["per_layer"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.scale = SMOKE_SCALE if args.smoke else args.seconds / FULL_SECONDS
    # The traced pass needs one untraced run to compare with; the
    # end-to-end figures for the record come from a run without --trace.
    if args.repeats is None:
        args.repeats = 1 if args.smoke or args.trace else 3
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    selected = args.workload or workloads

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    allowed = pin_to_one_core()
    env = child_environment(out_dir)
    results = {
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "smoke": args.smoke,
        "repeats": args.repeats,
        "traced": bool(args.trace),
        "nproc": os.cpu_count(),
        "allowed_cpus": allowed,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "workloads": {
            workload: measure(workload, args, end_to_end, env, out_dir)
            for workload in selected
        },
    }
    out_path = args.out or out_dir / "results.json"
    out_path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print_report(results, end_to_end, per_layer)
    print(f"\nresults written to {out_path}")

    correct = all(s["correct"] for s in results["workloads"].values())
    if len(selected) == 1:
        section = results["workloads"][selected[0]]
        if args.trace:
            metrics = {
                name: {
                    "value": section["per_layer"][name],
                    "unit": metric["unit"],
                }
                for name, metric in per_layer.items()
            }
        else:
            metrics = {
                name: {
                    "value": section["end_to_end"][name]["best"],
                    "unit": metric["unit"],
                }
                for name, metric in end_to_end.items()
            }
        print(json.dumps({
            "correct": correct,
            "attempted": section["attempted"],
            "failed": section["failed"],
            "metrics": metrics,
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
