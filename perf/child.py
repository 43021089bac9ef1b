"""One run of one workload in a fresh interpreter.

``run.py`` spawns this once per (workload, repeat) so that no run
inherits another's heap, caches or garbage.  It prints one JSON object:
the raw end-to-end values of this run and, when traced, the per-layer
metrics.  A reply is compared with its closed form where it arrives
(one equality per call, inside the timed blocks); the exactly-once calls
after recovery and the TRC conformance check run after every timed
interval.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent

#: The deterministic ledger: a traced run must reproduce these exactly.
SIMULATED = (
    "sim_calls_per_s", "sim_call_ms_p50", "sim_call_ms_p99",
    "forces_per_call", "log_bytes_per_call", "ttfr_sim_ms",
    "recovery_sim_ms",
)


def log_snapshot(processes) -> list[dict]:
    return [
        {**vars(stream.log.stats), "process": process.name}
        for process in processes
        for stream in process.streams
    ]


def device_snapshot(runtime) -> tuple[dict, dict]:
    disk: dict = {}
    for machine in runtime.cluster.machines():
        for key, value in vars(machine.disk.stats).items():
            disk[key] = disk.get(key, 0) + value
    return disk, dict(vars(runtime.cluster.network.stats))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at-ns", type=int, required=True)
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args()

    source = HERE.parent / "src"
    if not (source / "repro").is_dir():
        # Never measure some other installed copy of the program.
        raise SystemExit(f"no repro package under {source}")
    sys.path.insert(0, str(source))
    import layers
    import spans
    import workloads
    from repro.analysis import trace_check
    from repro.faults import sweep

    recorder = spans.Recorder() if args.trace else None
    site = workloads.CallSite(recorder)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale, site)

    def phase(name: str) -> None:
        if recorder is not None:
            recorder.phase(name)

    workload.setup()
    # Set-up garbage is not billed to the steady phase; GC stays on.
    gc.collect()
    gc.freeze()
    setup_s = (perf_counter_ns() - args.spawned_at_ns) / 1e9

    runtime = workload.runtime
    processes = workload.processes

    # steady phase --------------------------------------------------------
    phase("steady")
    log_before = log_snapshot(processes)
    disk_before, net_before = device_snapshot(runtime)
    site.sampling = True
    sim_start = runtime.now
    block_us = []
    steady_start = perf_counter_ns()
    for index in range(workload.blocks):
        started = perf_counter_ns()
        made = workload.steady_block(index)
        block_us.append((perf_counter_ns() - started) / made / 1e3)
    steady_wall_us = (perf_counter_ns() - steady_start) / 1e3
    sim_steady_ms = runtime.now - sim_start
    site.sampling = False
    log_steady = layers.stream_deltas(log_before, log_snapshot(processes))
    disk_after, net_after = device_snapshot(runtime)
    samples = sorted(site.samples)
    calls = len(samples)

    # crash -> first reply -> fully recovered ------------------------------
    phase("pre")
    workload.before_crash()
    log_before = log_snapshot(processes)
    phase("ttfr")
    wall_start = perf_counter_ns()
    sim_start = runtime.now
    workload.crash()
    workload.first_reply()
    ttfr_wall_us = (perf_counter_ns() - wall_start) / 1e3
    ttfr_sim_ms = runtime.now - sim_start
    pending = sum(
        process.pending_recovery.pending_count()
        for process in processes
        if process.pending_recovery is not None
    )
    phase("drain")
    workload.recover()
    recovery_wall_us = (perf_counter_ns() - wall_start) / 1e3
    recovery_sim_ms = runtime.now - sim_start
    log_recovery = layers.stream_deltas(log_before, log_snapshot(processes))

    # the oracle, untimed ----------------------------------------------------
    phase("verify")
    workload.verify()
    phase("oracle")
    started = perf_counter_ns()
    violations = trace_check.check_runtime(runtime)
    oracle_wall_us = (perf_counter_ns() - started) / 1e3
    for process_name, violation in violations[:20]:
        site.failures.append(f"{process_name}: {violation.render()}")

    metrics = {
        "setup_s": setup_s,
        "wall_us_per_call": statistics.median(block_us),
        "sim_calls_per_s": calls / (sim_steady_ms / 1e3),
        "sim_call_ms_p50": layers.percentile(samples, 50),
        "sim_call_ms_p99": layers.percentile(samples, 99),
        "forces_per_call": layers.total(log_steady, "forces_performed") / calls,
        "log_bytes_per_call": layers.total(log_steady, "bytes_written") / calls,
        "ttfr_sim_ms": ttfr_sim_ms,
        "recovery_sim_ms": recovery_sim_ms,
        "ttfr_wall_ms": ttfr_wall_us / 1e3,
        "recovery_wall_ms": recovery_wall_us / 1e3,
    }
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "traced": bool(args.trace),
        "calls": calls,
        "block_wall_us_per_call": block_us,
        "attempted": site.attempted + len(violations),
        "failed": site.failed + len(violations),
        "failures": site.failures,
        "violations": len(violations),
        "metrics": metrics,
    }

    if recorder is not None:
        sweep_points = 0
        sweep_wall_us = 0.0
        if args.workload == "serial-bookstore":
            # What tier-1's sampled sweep pays per crash point.
            phase("sweep")
            started = perf_counter_ns()
            swept = sweep.run_sweep(
                ["bookstore"], torn_stride=8, composites=False, stride=4
            )
            sweep_wall_us = (perf_counter_ns() - started) / 1e3
            sweep_points = len(swept.results)
            if not swept.ok:
                result["failed"] += len(swept.failed)
                result["failures"].append(
                    f"{len(swept.failed)} sweep points failed"
                )
            result["attempted"] += sweep_points
        phase("done")
        recorder.uninstall()
        disk = layers.minus(disk_after, disk_before)
        config = runtime.config
        result["layers"] = layers.derive(recorder, {
            "calls": calls,
            "steady_wall_us": steady_wall_us,
            "sim_call_ms_sum": sum(site.samples),
            "ttfr_wall_us": ttfr_wall_us,
            "ttfr_sim_ms": ttfr_sim_ms,
            "recovery_wall_us": recovery_wall_us,
            "recovery_sim_ms": recovery_sim_ms,
            "log": log_steady,
            "log_recovery": log_recovery,
            "disk": disk,
            "network": layers.minus(net_after, net_before),
            "pending_at_first_reply": pending,
            "on_demand": config.on_demand_recovery,
            "useful_replays": workload.useful_replays,
            "lanes": (
                max(len(process.streams) for process in processes)
                if config.sharded_logging and not config.on_demand_recovery
                else 1
            ),
            "trace_events": sum(
                len(stream.trace.entries)
                for process in processes
                for stream in process.streams
            ),
            "oracle_wall_us": oracle_wall_us,
            "violations": len(violations),
            "sweep_points": sweep_points,
            "sweep_wall_us": sweep_wall_us,
        })
        result["span_table"] = recorder.table()
        if args.spans_out:
            recorder.write_spans(args.spans_out)

    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    result["affinity"] = sorted(os.sched_getaffinity(0))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
