"""Per-layer metrics of a traced run.

``BENCHMARK.json`` names every per-layer metric with its unit and
direction.  :func:`derive` computes them from two sources only — the span
aggregates of :class:`spans.Recorder` and the counters the layers
publish themselves (``LogStats``, ``DiskStats``, ``NetworkStats``,
``PendingRecovery.pending_count``).  ``*_us`` is wall self time and
``*_sim_ms`` simulated self time, per steady-phase call unless the name
says otherwise; counts are totals over the phase they belong to.
README.md says what each should move.
"""

from __future__ import annotations

import spec

STEADY = ("steady",)
#: crash -> first reply -> fully recovered
RECOVERY = ("ttfr", "drain")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(ordered: list, percent: int) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[-(-len(ordered) * percent // 100) - 1]


def minus(after: dict, before: dict) -> dict:
    """Field-wise difference of two counter snapshots; a non-numeric
    field (a stream's process name) keeps its value."""
    return {
        key: value - before[key] if isinstance(value, (int, float)) else value
        for key, value in after.items()
    }


def stream_deltas(before: list[dict], after: list[dict]) -> list[dict]:
    """Per-stream ``LogStats`` differences (parallel snapshot lists)."""
    return [minus(new, old) for old, new in zip(before, after)]


def total(deltas: list[dict], field: str) -> float:
    return sum(delta[field] for delta in deltas)


def derive(recorder, run: dict) -> dict[str, float]:
    """Every per-layer metric of one traced run.

    ``run`` carries what the runner measured around the phases:
    ``calls``, ``steady_wall_us``, ``recovery_wall_us``, ``ttfr_wall_us``,
    ``ttfr_sim_ms``, ``recovery_sim_ms``, ``sim_call_ms_sum``, the
    per-stream ``LogStats`` deltas of the steady phase (``log``) and of
    the recovery (``log_recovery``), the ``disk`` and ``network`` deltas
    of the steady phase, ``pending_at_first_reply``, ``on_demand``,
    ``useful_replays``, ``lanes``, ``trace_events``, ``oracle_wall_us``,
    ``violations``, ``sweep_points``, ``sweep_wall_us``.
    """
    calls = run["calls"]
    log, log_rec = run["log"], run["log_recovery"]

    def us(names, phases=STEADY):
        return recorder.total("wall_ns", names, phases) / 1e3

    def sim(names, phases=STEADY):
        return recorder.total("sim_ms", names, phases)

    def n(names, phases=STEADY):
        return recorder.total("count", names, phases)

    encode = ("log.records.encode_record_into",)
    decode = ("log.records.decode_record",)
    save = ("checkpoint.save_context_state",)
    checkpoint = ("checkpoint.take_process_checkpoint",)
    replay = ("core.interceptor.invoke_for_replay",)
    recover = ("recovery.recovery_manager.recover",)
    yield_point = ("concurrency.scheduler.yield_point",)
    waits = ("concurrency.scheduler.block_until",
             "concurrency.scheduler.group_force")
    reads = ("sim.stable_store.read", "sim.stable_store.read_range")

    forces = total(log, "forces_performed")
    batches = total(log, "group_commit_batches")
    decoded = n(decode, RECOVERY)
    replayed = n(replay, RECOVERY)
    on_demand = run["on_demand"]
    replayed_first = n(replay, ("ttfr",)) if on_demand else 0

    # per-process stream shapes (sharding)
    by_process: dict[str, list[dict]] = {}
    for delta in log:
        by_process.setdefault(delta["process"], []).append(delta)
    streams = max(len(group) for group in by_process.values())
    force_share = max(
        _ratio(
            max(d["forces_performed"] for d in group),
            sum(d["forces_performed"] for d in group),
        )
        for group in by_process.values()
    )
    batch_ratios = [
        d["group_commit_riders"] / d["group_commit_batches"]
        for d in log
        if d["group_commit_batches"]
    ]
    shard_forces = sum(
        d["forces_performed"]
        for group in by_process.values()
        for d in group[1:]
    )
    roots = sorted(recorder.phases["steady"].root_wall_ns)
    serial = n(yield_point) == 0

    values = {
        "core.interceptor.self_us": us(("core.interceptor.",)) / calls,
        "core.interceptor.self_sim_ms": sim(("core.interceptor.",)) / calls,
        "core.interceptor.replays": replayed,
        "core.policy.self_us": us(("core.policy.",)) / calls,
        "core.policy.decisions_per_call": n(("core.policy.",)) / calls,
        "core.policy.forces_requested_per_call":
            total(log, "forces_requested") / calls,
        "core.runtime.invoke_self_us":
            us(("core.runtime.invoke_method",)) / calls,
        "core.runtime.swizzle_us": us(("core.swizzle.",)) / calls,
        "core.process.log_append_self_us":
            us(("core.process.log_append",)) / calls,
        "core.process.log_force_self_us":
            us(("core.process.log_force",)) / calls,
        "log.records.encode_us_per_record": _ratio(us(encode), n(encode)),
        "log.records.decode_us_per_record":
            _ratio(us(decode, RECOVERY), decoded),
        "log.records.encode_share":
            _ratio(us(encode), run["steady_wall_us"]),
        "log.records.decode_share":
            _ratio(us(decode, RECOVERY), run["recovery_wall_us"]),
        "log.log_manager.appends_per_call": total(log, "appends") / calls,
        "log.log_manager.append_self_us":
            us(("log.log_manager.append",)) / calls,
        "log.log_manager.force_self_us":
            us(("log.log_manager.force",)) / calls,
        "log.log_manager.forces_performed_per_call": forces / calls,
        "log.log_manager.coalesced_forces": total(log, "coalesced_forces"),
        "log.log_manager.bytes_per_append":
            _ratio(total(log, "bytes_appended"), total(log, "appends")),
        "log.log_manager.scan_us_per_record": _ratio(
            us(("log.log_manager.scan",), RECOVERY),
            n(("log.log_manager.scan",), RECOVERY),
        ),
        "log.log_manager.read_record_us": _ratio(
            us(("log.log_manager.read_record",), RECOVERY),
            n(("log.log_manager.read_record",), RECOVERY),
        ),
        "log.log_manager.bytes_read_per_recovered_record":
            _ratio(total(log_rec, "bytes_read"), decoded),
        "log.log_manager.index_hits": total(log_rec, "index_hits"),
        "log.log_manager.comp_index_rebuilds":
            total(log_rec, "comp_index_rebuilds"),
        "log.log_manager.comp_index_hits":
            total(log_rec, "comp_index_hits"),
        "log.log_manager.truncations": total(log, "truncations"),
        "log.log_manager.bytes_reclaimed_share": _ratio(
            total(log, "bytes_reclaimed"), total(log, "bytes_written")
        ),
        "log.log_manager.well_known_writes":
            total(log, "well_known_writes"),
        "log.log_manager.group_commit_batches": batches,
        "log.log_manager.riders_per_batch":
            _ratio(total(log, "group_commit_riders"), batches),
        "log.log_manager.pipelined_gated_per_call":
            total(log, "pipelined_gated") / calls,
        "log.log_manager.pipelined_write_skips":
            total(log, "pipelined_write_skips"),
        "log.sharding.streams": streams,
        "log.sharding.force_share_max_stream": force_share,
        "log.sharding.riders_per_batch_min_stream":
            min(batch_ratios) if streams > 1 and batch_ratios else 0.0,
        "log.sharding.cross_stream_forces_per_call": shard_forces / calls,
        "sim.disk.writes_per_call": run["disk"]["writes"] / calls,
        "sim.disk.sim_ms_per_write":
            _ratio(run["disk"]["busy_ms"], run["disk"]["writes"]),
        "sim.disk.sim_ms_per_call": run["disk"]["busy_ms"] / calls,
        "sim.disk.full_rotation_waits_per_call":
            run["disk"]["full_rotation_waits"] / calls,
        "sim.disk.write_self_us": us(("sim.disk.write",)) / calls,
        "sim.stable_store.append_self_us":
            us(("sim.stable_store.append",)) / calls,
        "sim.stable_store.read_self_us":
            _ratio(us(reads, RECOVERY), n(reads, RECOVERY)),
        "sim.stable_store.bytes_written": total(log, "bytes_written"),
        "sim.stable_store.bytes_read": total(log_rec, "bytes_read"),
        "sim.stable_store.trim_front_us": _ratio(
            us(("sim.stable_store.trim_front",)),
            n(("sim.stable_store.trim_front",)),
        ),
        "sim.network.messages_per_call": run["network"]["messages"] / calls,
        "sim.network.sim_ms_per_call": run["network"]["busy_ms"] / calls,
        "sim.network.transmit_self_us":
            us(("sim.network.transmit",)) / calls,
        "concurrency.scheduler.yields_per_call": n(yield_point) / calls,
        "concurrency.scheduler.handoff_us":
            _ratio(us(yield_point), n(yield_point)),
        "concurrency.scheduler.block_waits_per_call":
            n(("concurrency.scheduler.block_until",)) / calls,
        "concurrency.scheduler.wait_sim_ms": sim(waits) / calls,
        "concurrency.scheduler.group_force_self_us":
            us(("concurrency.scheduler.group_force",)) / calls,
        "concurrency.scheduler.acquire_context_self_us":
            us(("concurrency.scheduler.acquire_context",)) / calls,
        "checkpoint.state_saves": n(save),
        "checkpoint.save_self_us": _ratio(us(save), n(save)),
        "checkpoint.save_sim_ms": _ratio(sim(save), n(save)),
        "checkpoint.process_checkpoints": n(checkpoint),
        "checkpoint.process_checkpoint_self_us":
            _ratio(us(checkpoint), n(checkpoint)),
        "checkpoint.process_checkpoint_sim_ms":
            _ratio(sim(checkpoint), n(checkpoint)),
        "checkpoint.stall_sim_ms_max":
            recorder.peak(("core.process.save_context_state",), STEADY),
        "checkpoint.restore_sim_ms":
            sim(("checkpoint.restore_context_state",), RECOVERY),
        "recovery.recovery_manager.analysis_wall_ms":
            us(recover, RECOVERY) / 1e3,
        "recovery.recovery_manager.analysis_sim_ms": sim(recover, RECOVERY),
        "recovery.recovery_manager.replay_us_per_record":
            _ratio(run["recovery_wall_us"], decoded),
        "recovery.recovery_manager.replay_sim_ms_per_call":
            _ratio(run["recovery_sim_ms"], replayed),
        "recovery.recovery_manager.records_scanned": decoded,
        "recovery.recovery_manager.calls_replayed": replayed,
        "recovery.recovery_manager.sends_suppressed":
            n(("core.interceptor.prepare_outgoing",), RECOVERY)
            - n(("core.interceptor.on_outgoing",), RECOVERY),
        "recovery.recovery_manager.lanes": run["lanes"],
        "recovery.incremental.pending_at_first_reply":
            run["pending_at_first_reply"],
        "recovery.incremental.calls_replayed_before_first_reply":
            replayed_first,
        "recovery.incremental.useful_replay_ratio":
            _ratio(run["useful_replays"], replayed_first),
        "recovery.incremental.ensure_component_self_us": _ratio(
            us(("recovery.incremental.ensure_component",), RECOVERY),
            n(("recovery.incremental.ensure_component",), RECOVERY),
        ),
        "recovery.incremental.drain_wall_ms":
            (run["recovery_wall_us"] - run["ttfr_wall_us"]) / 1e3
            if on_demand else 0.0,
        "recovery.incremental.drain_sim_ms":
            run["recovery_sim_ms"] - run["ttfr_sim_ms"] if on_demand else 0.0,
        "analysis.trace.record_self_us": _ratio(
            us(("analysis.trace.record",)), n(("analysis.trace.record",))
        ),
        "analysis.trace.events_per_call":
            n(("analysis.trace.record",)) / calls,
        "analysis.trace_check.wall_ms": run["oracle_wall_us"] / 1e3,
        "analysis.trace_check.us_per_event":
            _ratio(run["oracle_wall_us"], run["trace_events"]),
        "analysis.trace_check.violations": run["violations"],
        "faults.sweep.wall_ms_per_point":
            _ratio(run["sweep_wall_us"] / 1e3, run["sweep_points"]),
        "faults.sweep.points": run["sweep_points"],
        # the runner fills this in: it needs the untraced run too
        "trace.overhead_ratio": 0.0,
        "trace.spans": recorder.spans,
        "call_wall_us_p99":
            percentile(roots, 99) / 1e3 if serial and roots else 0.0,
        "sim_ledger.residual_ms":
            sum(recorder.phases["steady"].sim_ms) - run["sim_call_ms_sum"],
        "sim_ledger.recovery_residual_ms":
            sum(sum(recorder.phases[phase].sim_ms) for phase in RECOVERY)
            - run["recovery_sim_ms"],
    }
    names = spec.by_name(spec.load()["per_layer"])
    if set(values) != set(names):
        raise ValueError(
            "per-layer metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(names))}"
        )
    return {name: float(values[name]) for name in names}
