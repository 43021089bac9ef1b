"""``repro-faults``: the crash-point sweep's command line.

Subcommands:

* ``sweep`` — discover every crash point and run the full sweep (or a
  sampled smoke subset with ``--stride``/``--message-stride``); prints
  one line per failure and exits non-zero if any point fails.
* ``list`` — discover and print the crash plan without running it.
* ``run POINT_ID [...]`` — re-execute specific schedules by ID (the
  round trip for reproducing a failure from a sweep report line).
"""

from __future__ import annotations

import argparse
import sys
import time

from .plan import CrashPoint
from .sweep import discover_plan, run_point, run_sweep
from .workloads import WORKLOADS


def _print_failures(result) -> None:
    for point in result.failed:
        for failure in point.failures:
            print(f"FAIL {point.point_id}: {failure}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    started = time.monotonic()
    last_note = [started]

    def progress(index: int, total: int, point_result) -> None:
        now = time.monotonic()
        if not point_result.ok:
            print(f"FAIL {point_result.point_id}")
        elif args.verbose or now - last_note[0] >= 5.0:
            print(f"  [{index + 1}/{total}] {point_result.point_id}")
            last_note[0] = now

    result = run_sweep(
        workloads=args.workloads or None,
        message_stride=args.message_stride,
        composites=not args.no_composites,
        stride=args.stride,
        progress=progress,
    )
    elapsed = time.monotonic() - started
    _print_failures(result)
    verdict = "ok" if result.ok else f"{len(result.failed)} FAILED"
    print(
        f"{len(result.results)} points swept in {elapsed:.1f}s: {verdict}"
    )
    return 0 if result.ok else 1


def _cmd_list(args: argparse.Namespace) -> int:
    plan, __ = discover_plan(
        workloads=args.workloads or None,
        message_stride=args.message_stride,
        composites=not args.no_composites,
    )
    sampled = plan.sample(args.stride)
    for point in sampled:
        print(point.point_id)
    print(f"{len(sampled)} points", file=sys.stderr)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        points = [CrashPoint.parse(point_id) for point_id in args.points]
    except ValueError as exc:
        print(f"repro-faults: {exc}", file=sys.stderr)
        return 2
    unknown = {p.workload for p in points} - set(WORKLOADS)
    if unknown:
        print(
            f"repro-faults: unknown workload(s) {sorted(unknown)}; "
            f"known: {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    golden = {
        name: WORKLOADS[name]()
        for name in sorted({p.workload for p in points})
    }
    failed = 0
    for point in points:
        result = run_point(point, golden[point.workload])
        if result.ok:
            print(f"ok   {point.point_id} (retries={result.retries})")
        else:
            failed += 1
            for failure in result.failures:
                print(f"FAIL {point.point_id}: {failure}")
    return 0 if not failed else 1


def _add_plan_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload",
        dest="workloads",
        action="append",
        choices=sorted(WORKLOADS),
        help="limit to this workload (repeatable; default: all)",
    )
    parser.add_argument(
        "--message-stride",
        type=int,
        default=1,
        metavar="N",
        help="keep every N-th crossing of each stable-flush and "
        "message-pipeline site; the first always stays (default 1: all)",
    )
    parser.add_argument(
        "--stride",
        type=int,
        default=1,
        metavar="N",
        help="run every N-th point per workload (default 1: all)",
    )
    parser.add_argument(
        "--no-composites",
        action="store_true",
        help="skip crash-during-recovery composite points",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-faults",
        description="deterministic crash-point sweep over the Phoenix "
        "recovery protocols",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep_parser = sub.add_parser("sweep", help="run the sweep")
    _add_plan_options(sweep_parser)
    sweep_parser.add_argument(
        "-v", "--verbose", action="store_true", help="print every point"
    )
    sweep_parser.set_defaults(func=_cmd_sweep)

    list_parser = sub.add_parser("list", help="print the crash plan")
    _add_plan_options(list_parser)
    list_parser.set_defaults(func=_cmd_list)

    run_parser = sub.add_parser(
        "run", help="re-execute specific crash points by ID"
    )
    run_parser.add_argument(
        "points",
        nargs="+",
        metavar="POINT_ID",
        help="e.g. 'bookstore:log.force.after:beta-bookstore-app@4'",
    )
    run_parser.set_defaults(func=_cmd_run)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
