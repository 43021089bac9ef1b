"""Log hot-path microbenchmark (not a paper table).

The paper's simulated results (Tables 4–8) count disk I/Os and message
rounds; this benchmark guards the *Python-level* cost of the log
implementation that produces them.  It appends 10k–100k records, then
point-reads and tail-scans, asserting that the read path is indexed:
``bytes_read`` must grow with the number of records actually read, not
with the size of the log — i.e. a point read fetches one frame, a tail
scan fetches one suffix, regardless of history length.  A second
guardrail pins the kind-filtered scan recovery's analysis pass rides on:
asking a 100k-record log for its handful of creation records decodes
exactly those, in a small fraction of the unfiltered scan's time.  A
third counts the stable reads of ``read_records``, which eager redo
makes over the merged chains: a run of adjacent frames is one read,
frames with gaps between them are one read each, and ``bytes_read`` is
the frames' own bytes either way.  A fourth restarts: a fresh manager
over a ≈69k-frame log (the size of ``recovery-ondemand-50k``'s) runs
``repair_tail`` and then ``component_chains(0)``: the repair validates
the clean log without one ``read_frame`` call, and the chains decode no
record and cost a small fraction of the repair walk they ride on.  A
fifth counts the Python calls ``decode_record`` makes on the mix of an
on-demand recovery's log (one long incoming call, one short reply): a
machine-independent count, bounded so no reader spends a call per field.

Run per push in CI, via ``make perf`` (with the Table 7 recovery
benchmark), or::

    pytest benchmarks/bench_log_hotpath.py --benchmark-only -s
"""

import sys
from time import perf_counter

from repro.common.messages import MessageKind, MethodCallMessage
from repro.log import (
    CreationRecord,
    LogManager,
    MessageRecord,
    decode_record,
    encode_record,
    log_manager,
)
from repro.log.serialization import read_frame
from repro.sim import Cluster

from conftest import run_experiment

SIZES = (10_000, 100_000)
POINT_READS = 1_000
TAIL_RECORDS = 1_000
CREATIONS = 8
RUN_FRAMES = 1_000
#: The filtered scan may cost at most this share of the unfiltered one
#: (measured: under 1 %; a ratio, so the machine's speed cancels out).
FILTERED_SCAN_MAX_SHARE = 0.1
RESTART_FRAMES = 69_000
#: The chains' group-by may cost at most this share of ``repair_tail``
#: (measured: 5–8 %).
CHAINS_MAX_SHARE = 0.15
DECODE_PAIRS = 500
#: Python calls per decoded record on the on-demand mix (measured: 3.5; a
#: reader with one method call per field made 22.5).
DECODE_MAX_CALLS = 8


def _record(n: int) -> MessageRecord:
    return MessageRecord(
        context_id=1,
        kind=MessageKind.INCOMING_CALL,
        message=MethodCallMessage(
            target_uri="phoenix://alpha/p/1", method="m", args=(n,)
        ),
    )


def _build_log(
    n_records: int, creations: int = 0
) -> tuple[LogManager, list[int]]:
    """A log of ``n_records`` message records (whose LSNs are returned)
    with ``creations`` creation records spread evenly among them."""
    machine = Cluster().machine("alpha")
    log = LogManager("p1", machine.disk, machine.stable_store)
    every = n_records // creations if creations else n_records + 1
    lsns = []
    for i in range(n_records):
        if i % every == every // 2:
            log.append(
                CreationRecord(context_id=i, component_lid=i, class_name="C")
            )
        lsns.append(log.append(_record(i)))
    log.force()
    return log, lsns


def _hotpath_experiment() -> dict[int, dict[str, float]]:
    results: dict[int, dict[str, float]] = {}
    for n in SIZES:
        log, lsns = _build_log(n)
        frame_len = lsns[1] - lsns[0]

        before = log.stats.bytes_read
        step = max(1, n // POINT_READS)
        targets = lsns[::step][:POINT_READS]
        for lsn in targets:
            log.read_record(lsn)
        point_bytes = log.stats.bytes_read - before

        before = log.stats.bytes_read
        tail_from = lsns[-TAIL_RECORDS]
        tail_count = sum(1 for __ in log.scan(tail_from))
        tail_bytes = log.stats.bytes_read - before
        tail_suffix = log.stable_lsn - tail_from

        results[n] = {
            "tail_suffix": tail_suffix,
            "frame_len": frame_len,
            "point_reads": len(targets),
            "point_bytes": point_bytes,
            "point_bytes_per_read": point_bytes / len(targets),
            "tail_count": tail_count,
            "tail_bytes": tail_bytes,
            "log_bytes": log.stable_lsn,
            "index_hits": log.stats.index_hits,
        }
    return results


def bench_log_hotpath(benchmark):
    results = benchmark.pedantic(_hotpath_experiment, iterations=1, rounds=1)

    print()
    for n, r in sorted(results.items()):
        print(
            f"{n:>7} records ({r['log_bytes']:>8.0f} log bytes): "
            f"{r['point_bytes_per_read']:.0f} bytes/point-read, "
            f"tail scan {r['tail_bytes']:.0f} bytes"
        )

    for n, r in results.items():
        # a point read fetches one frame (frame sizes vary by a few
        # bytes with the integer payload width), independent of log size
        assert r["point_bytes_per_read"] <= r["frame_len"] + 8
        # ... which is a vanishing fraction of the log (acceptance
        # criterion: <= 1% of the seed's whole-log read per lookup)
        assert r["point_bytes_per_read"] <= 0.01 * r["log_bytes"]
        # a tail scan fetches exactly the tail suffix, nothing before it
        assert r["tail_count"] == TAIL_RECORDS
        assert r["tail_bytes"] == r["tail_suffix"]
        # every point read and the scan start resolved via the index
        assert r["index_hits"] >= r["point_reads"]

    # bytes_read is O(records read): the same point-read workload costs
    # (almost) the same bytes on a 10x larger log
    small, large = results[SIZES[0]], results[SIZES[-1]]
    assert large["point_bytes"] <= 1.1 * small["point_bytes"]
    assert large["tail_bytes"] <= 1.1 * small["tail_bytes"]


def _filtered_scan_experiment() -> dict[str, float]:
    log, __ = _build_log(SIZES[-1], creations=CREATIONS)
    # Count decodes at the name the log manager imported: the scan's
    # own work, with no counter added to LogStats for it.
    decodes = []
    real_decode = log_manager.decode_record
    log_manager.decode_record = lambda payload: (
        decodes.append(1) or real_decode(payload)
    )
    try:
        started = perf_counter()
        found = list(log.scan(kinds={CreationRecord}))
        filtered_s = perf_counter() - started
        filtered_decodes = len(decodes)
        started = perf_counter()
        total = sum(1 for __ in log.scan())
        full_s = perf_counter() - started
    finally:
        log_manager.decode_record = real_decode
    return {
        "records": total,
        "found": len(found),
        "all_creations": all(
            isinstance(rec, CreationRecord) for __, rec in found
        ),
        "filtered_decodes": filtered_decodes,
        "full_decodes": len(decodes) - filtered_decodes,
        "filtered_s": filtered_s,
        "full_s": full_s,
    }


def bench_filtered_scan(benchmark):
    r = benchmark.pedantic(_filtered_scan_experiment, iterations=1, rounds=1)

    print()
    print(
        f"{r['records']:>7} records: scan(kinds={{CreationRecord}}) "
        f"{r['filtered_s'] * 1e3:.1f} ms / {r['filtered_decodes']} decodes, "
        f"unfiltered {r['full_s'] * 1e3:.1f} ms / {r['full_decodes']} decodes"
    )

    assert r["records"] == SIZES[-1] + CREATIONS
    assert r["found"] == CREATIONS and r["all_creations"]
    # one decode per record asked for, none for the frames skipped
    assert r["filtered_decodes"] == CREATIONS
    assert r["full_decodes"] == r["records"]
    assert r["filtered_s"] <= FILTERED_SCAN_MAX_SHARE * r["full_s"]


def _run_reads_experiment() -> dict[str, dict[str, int]]:
    log, lsns = _build_log(SIZES[0])
    ends = lsns[1:] + [log.stable_lsn]
    frame_bytes = {lsn: end - lsn for lsn, end in zip(lsns, ends)}
    results = {}
    for name, chosen in (
        ("adjacent", lsns[:RUN_FRAMES]),
        ("every_other", lsns[: 2 * RUN_FRAMES : 2]),
    ):
        before = log.stats.snapshot()
        records = sum(1 for __ in log.read_records(chosen))
        results[name] = {
            "records": records,
            "reads": log.stats.reads - before.reads,
            "bytes_read": log.stats.bytes_read - before.bytes_read,
            "frame_bytes": sum(frame_bytes[lsn] for lsn in chosen),
        }
    return results


def bench_read_records_runs(benchmark):
    results = benchmark.pedantic(_run_reads_experiment, iterations=1, rounds=1)

    print()
    for name, r in results.items():
        print(
            f"read_records over {r['records']} {name} frames: "
            f"{r['reads']} stable reads, {r['bytes_read']} bytes"
        )

    adjacent, sparse = results["adjacent"], results["every_other"]
    assert adjacent["records"] == sparse["records"] == RUN_FRAMES
    # a run of index neighbours is one contiguous range: one read ...
    assert adjacent["reads"] == 1
    # ... and frames with gaps between them are read one by one
    assert sparse["reads"] == RUN_FRAMES
    # either way only the frames' own bytes are fetched
    assert adjacent["bytes_read"] == adjacent["frame_bytes"]
    assert sparse["bytes_read"] == sparse["frame_bytes"]


def _chains_after_restart_experiment() -> dict[str, float]:
    crashed, __ = _build_log(RESTART_FRAMES - CREATIONS, creations=CREATIONS)
    expected = crashed.component_chains(0)
    fresh = LogManager("p1", crashed.disk, crashed.stable_store)
    # Count decodes at the name the log manager imported, and per-frame
    # reads at every module that holds ``read_frame`` (the framed file's
    # torn-tail rule calls it too): the restart's own work, with no
    # counter added for it.
    decodes = []
    frame_reads = []
    real_decode = log_manager.decode_record
    log_manager.decode_record = lambda payload: (
        decodes.append(1) or real_decode(payload)
    )
    holders = [
        module
        for name, module in list(sys.modules.items())
        if name.startswith("repro")
        and getattr(module, "read_frame", None) is read_frame
    ]
    for module in holders:
        module.read_frame = lambda data, offset: (
            frame_reads.append(1) or read_frame(data, offset)
        )
    try:
        started = perf_counter()
        fresh.repair_tail()
        repair_s = perf_counter() - started
        repair_frame_reads = len(frame_reads)
        started = perf_counter()
        chains = fresh.component_chains(0)
        chains_s = perf_counter() - started
    finally:
        log_manager.decode_record = real_decode
        for module in holders:
            module.read_frame = read_frame
    return {
        "frames": sum(len(chain) for chain in chains.values()),
        "chains": len(chains),
        "same_chains": chains == expected,
        "decodes": len(decodes),
        "repair_frame_reads": repair_frame_reads,
        "frame_read_holders": {module.__name__ for module in holders},
        "rebuilds": fresh.stats.comp_index_rebuilds,
        "repair_s": repair_s,
        "chains_s": chains_s,
    }


def bench_chains_after_restart(benchmark):
    r = benchmark.pedantic(
        _chains_after_restart_experiment, iterations=1, rounds=1
    )

    print()
    print(
        f"{r['frames']:>7} frames after restart: repair_tail "
        f"{r['repair_s'] * 1e3:.1f} ms, component_chains(0) "
        f"{r['chains_s'] * 1e3:.1f} ms over {r['chains']} chains, "
        f"{r['decodes']} decodes"
    )

    assert r["frames"] == RESTART_FRAMES
    # the fresh manager's chains are the crashed one's, grouped from the
    # index repair_tail rebuilt, with no record decoded
    assert r["same_chains"]
    assert r["decodes"] == 0 and r["rebuilds"] == 0
    # the clean log is validated by one walk, not a read_frame per frame,
    # counted wherever the restart could call it
    assert {"repro.log.log_manager", "repro.log.serialization"} <= (
        r["frame_read_holders"]
    )
    assert r["repair_frame_reads"] == 0
    assert r["chains_s"] <= CHAINS_MAX_SHARE * r["repair_s"]


def _decode_calls_experiment() -> dict[str, float]:
    records = []
    for n in range(DECODE_PAIRS):
        records.append(_record(n))
        records.append(
            MessageRecord(
                context_id=1, kind=MessageKind.REPLY_TO_INCOMING, short=True
            )
        )
    payloads = [encode_record(record) for record in records]
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(1)

    sys.setprofile(profile)
    try:
        decoded = [decode_record(payload) for payload in payloads]
    finally:
        sys.setprofile(None)
    return {
        "records": len(decoded),
        "same": decoded == records,
        "calls_per_record": len(calls) / len(payloads),
    }


def bench_decode_calls(benchmark):
    r = benchmark.pedantic(_decode_calls_experiment, iterations=1, rounds=1)

    print()
    print(
        f"{r['records']} records of the on-demand mix: "
        f"{r['calls_per_record']:.2f} Python calls per decode_record"
    )

    assert r["same"]
    assert r["calls_per_record"] <= DECODE_MAX_CALLS
