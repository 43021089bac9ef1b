"""``repro-explore``: the schedule-space model checker's command line.

Subcommands:

* ``smoke`` — the CI gate: full DPOR exploration of the ledger
  workload at N=2 (must complete, zero violations), a budget-capped
  naive enumeration for the pruning-ratio comparison (DPOR must be
  strictly smaller), and one SCHEDULE_ID replayed twice byte-identically.
* ``explore [--sessions N] [--budget B] [--naive] [--crash SPEC]
  [--keep-going]`` — run the explorer and print every counterexample's
  replayable SCHEDULE_ID.
* ``run SCHEDULE_ID [--verify]`` — re-execute one explored schedule;
  with ``--verify``, run it twice and require byte-identical durable
  artifacts.
* ``crash-sweep [--sessions N] [--budget B] [--specs K]`` — derive K
  durability-boundary crash points from a recording golden run and
  explore the schedule space around each armed crash.
"""

from __future__ import annotations

import argparse
import sys

from ..faults.plane import CrashSpec
from .explore import (
    Counterexample,
    derive_crash_specs,
    explore,
    run_schedule,
    verify_schedule,
)


def _print_counterexamples(counterexamples: list[Counterexample]) -> None:
    for cx in counterexamples:
        print(f"  counterexample: {cx.schedule_id}")
        if cx.error:
            print(f"    error: {cx.error}")
        for violation in cx.violations:
            print(f"    {violation}")


def _cmd_smoke(args: argparse.Namespace) -> int:
    budget = args.budget
    dpor = explore(n_sessions=2, max_schedules=budget)
    print(
        f"DPOR n=2: {dpor.schedules} schedules, "
        f"complete={dpor.complete}, max depth {dpor.max_depth}, "
        f"{len(dpor.counterexamples)} counterexample(s)"
    )
    _print_counterexamples(dpor.counterexamples)
    ok = dpor.complete and dpor.ok

    # The same space under pipelined causal commit: the relaxed commit
    # points, gated sends, and log.submit in-flight states must stay
    # clean on TRC101–TRC109 across the whole reduced space.
    pipelined = explore(
        workload="ledger-pipelined", n_sessions=2, max_schedules=budget
    )
    print(
        f"DPOR n=2 (pipelined): {pipelined.schedules} schedules, "
        f"complete={pipelined.complete}, max depth {pipelined.max_depth}, "
        f"{len(pipelined.counterexamples)} counterexample(s)"
    )
    _print_counterexamples(pipelined.counterexamples)
    ok = ok and pipelined.complete and pipelined.ok

    naive_budget = min(budget, 2 * dpor.schedules)
    naive = explore(n_sessions=2, max_schedules=naive_budget, naive=True)
    suffix = "" if naive.complete else " (budget-capped)"
    print(f"naive n=2: {naive.schedules} schedules{suffix}")
    ratio = naive.schedules / max(1, dpor.schedules)
    print(f"pruning ratio: {ratio:.1f}x ({naive.schedules}/{dpor.schedules})")
    if not dpor.schedules < naive.schedules:
        print("FAIL: DPOR did not prune below naive enumeration")
        ok = False

    from ..faults.workloads import run
    from .explore import EXPLORE_WORKLOADS, encode_schedule_id
    from .policies import ControlledPolicy

    for workload in ("ledger", "ledger-pipelined"):
        probe = run(
            *EXPLORE_WORKLOADS[workload], policy=ControlledPolicy([1, 1, 0])
        )
        schedule_id = encode_schedule_id(workload, 2, probe.choices)
        __, diverged = verify_schedule(schedule_id)
        if diverged:
            print(f"FAIL: replay of {schedule_id} diverged in {diverged}")
            ok = False
        else:
            print(f"replay byte-identical: {schedule_id}")
    print(f"explore smoke: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_explore(args: argparse.Namespace) -> int:
    specs = tuple(CrashSpec.parse(text) for text in args.crash or ())
    result = explore(
        workload=args.workload,
        n_sessions=args.sessions,
        specs=specs,
        max_schedules=args.budget,
        naive=args.naive,
        stop_on_violation=not args.keep_going,
        log=lambda message: print(f"  {message}"),
    )
    mode = "naive" if result.naive else "DPOR"
    print(
        f"{mode} n={result.n_sessions}"
        + (f" crash={[s.render() for s in result.specs]}" if specs else "")
        + f": {result.schedules} schedules, complete={result.complete}, "
        f"max depth {result.max_depth}"
    )
    _print_counterexamples(result.counterexamples)
    return 0 if result.ok else 1


def _cmd_run(args: argparse.Namespace) -> int:
    if args.verify:
        run, diverged = verify_schedule(args.schedule_id)
        if diverged:
            print(f"replay DIVERGED in artifacts: {diverged}")
            return 1
        print("replay byte-identical across two executions")
    else:
        run = run_schedule(args.schedule_id)
    print(f"choices: {run.choices}")
    print(f"replies: {run.replies!r}")
    if run.fired:
        print(f"crash specs fired: {run.fired}")
    if run.error:
        print(f"error: {run.error}")
    for violation in run.violations:
        print(f"violation: {violation}")
    return 0 if not run.violations and run.error is None else 1


def _cmd_crash_sweep(args: argparse.Namespace) -> int:
    specs = derive_crash_specs(
        workload=args.workload, n_sessions=args.sessions, limit=args.specs
    )
    if not specs:
        print("no crash specs derived (empty journal?)")
        return 1
    failures = 0
    for spec in specs:
        result = explore(
            workload=args.workload,
            n_sessions=args.sessions,
            specs=(spec,),
            max_schedules=args.budget,
            stop_on_violation=not args.keep_going,
        )
        status = "complete" if result.complete else "budget-capped"
        print(
            f"{spec.render()}: {result.schedules} schedules ({status}), "
            f"{len(result.counterexamples)} counterexample(s)"
        )
        _print_counterexamples(result.counterexamples)
        failures += len(result.counterexamples)
    return 0 if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-explore",
        description="DPOR schedule-space exploration over scheduler "
        "yield points",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    smoke = sub.add_parser("smoke", help="CI gate: full DPOR at n=2")
    smoke.add_argument("--budget", type=int, default=2000)
    smoke.set_defaults(fn=_cmd_smoke)

    exp = sub.add_parser("explore", help="run the explorer")
    exp.add_argument("--workload", default="ledger")
    exp.add_argument("--sessions", type=int, default=2)
    exp.add_argument("--budget", type=int, default=1000)
    exp.add_argument("--naive", action="store_true")
    exp.add_argument(
        "--crash", action="append", metavar="SITE@OCCURRENCE",
        help="arm a crash spec (repeatable)",
    )
    exp.add_argument("--keep-going", action="store_true")
    exp.set_defaults(fn=_cmd_explore)

    run = sub.add_parser("run", help="replay one SCHEDULE_ID")
    run.add_argument("schedule_id")
    run.add_argument("--verify", action="store_true")
    run.set_defaults(fn=_cmd_run)

    sweep = sub.add_parser(
        "crash-sweep", help="explore around derived crash points"
    )
    sweep.add_argument("--workload", default="ledger")
    sweep.add_argument("--sessions", type=int, default=2)
    sweep.add_argument("--budget", type=int, default=800)
    sweep.add_argument("--specs", type=int, default=3)
    sweep.add_argument("--keep-going", action="store_true")
    sweep.set_defaults(fn=_cmd_crash_sweep)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
