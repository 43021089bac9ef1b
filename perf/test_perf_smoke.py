"""Self-test of the benchmark (``pytest perf/``; tier-1 does not collect
it: ``testpaths = ["tests"]``)."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402

SPEC = spec.load()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Layers a workload bypasses: every metric under the prefix reads 0.
MUST_READ_ZERO = {
    "serial-bookstore": ("concurrency.scheduler.", "checkpoint.",
                         "recovery.incremental."),
    "concurrent-causal": ("checkpoint.", "recovery.incremental.",
                          "faults.sweep."),
    "concurrent-sharded": ("checkpoint.", "recovery.incremental.",
                           "faults.sweep."),
    "recovery-ondemand-50k": ("concurrency.scheduler.", "checkpoint.",
                              "faults.sweep."),
    "checkpointed-bookstore": ("concurrency.scheduler.",
                               "recovery.incremental.", "faults.sweep."),
}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace",
         "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout
    return json.loads(out.read_text(encoding="utf-8"))


def test_spec_matches_the_code():
    import workloads

    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(child.SIMULATED) < {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]


def test_smoke_emits_every_metric_for_every_workload(smoke):
    assert set(smoke["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for workload, section in smoke["workloads"].items():
        assert section["correct"], (workload, section["problems"])
        assert section["failed"] == 0
        assert set(section["end_to_end"]) == {
            m["name"] for m in SPEC["end_to_end"]
        }
        assert set(section["per_layer"]) == {
            m["name"] for m in SPEC["per_layer"]
        }
        for row in section["end_to_end"].values():
            assert row["best"] > 0


def test_traced_pass_reproduces_the_simulated_ledger(smoke):
    for workload, section in smoke["workloads"].items():
        for name in child.SIMULATED:
            assert (
                section["traced_end_to_end"][name]
                == section["end_to_end"][name]["best"]
            ), (workload, name)
        assert section["per_layer"]["trace.overhead_ratio"] > 0
        for name in ("sim_ledger.residual_ms",
                     "sim_ledger.recovery_residual_ms"):
            assert abs(section["per_layer"][name]) <= run.LEDGER_TOLERANCE_MS


def test_bypassed_layers_read_zero(smoke):
    for workload, prefixes in MUST_READ_ZERO.items():
        per_layer = smoke["workloads"][workload]["per_layer"]
        touched = {
            name: value
            for name, value in per_layer.items()
            if name.startswith(prefixes) and value != 0
        }
        assert not touched, (workload, touched)
    # one stream: 1 stream, all forces on it, no plan-stream forces
    for workload, section in smoke["workloads"].items():
        if workload == "concurrent-sharded":
            continue
        per_layer = section["per_layer"]
        assert per_layer["log.sharding.streams"] == 1
        assert per_layer["log.sharding.force_share_max_stream"] == 1.0
        assert per_layer["log.sharding.riders_per_batch_min_stream"] == 0
        assert per_layer["log.sharding.cross_stream_forces_per_call"] == 0


def test_driver_result_line():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "serial-bookstore", "--seed", "3", "--seconds", "0.8",
         "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert done.returncode == 0
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {
        name: value["unit"] for name, value in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_unwrapping_restores_every_patched_attribute():
    import spans
    import workloads  # noqa: F401  (imports every repro module it uses)

    recorder = spans.Recorder()
    patched = recorder.patched()
    wrapped = {layer for layer, __, __ in spans.BOUNDARIES}
    assert len(patched) >= sum(len(a) for __, __, a in spans.BOUNDARIES)
    assert wrapped >= {"core.runtime", "log.log_manager", "sim.disk"}
    for holder, key, original in patched:
        assert vars(holder)[key] is not original
    recorder.uninstall()
    for holder, key, original in patched:
        assert vars(holder)[key] is original, (holder, key)
    assert recorder.patched() == []


@pytest.mark.parametrize("better, sign", [("lower", 1), ("higher", -1)])
def test_verdict_in_both_directions(better, sign):
    def side(*costs):
        # costs are "larger is worse"; flip them for a higher-is-better metric
        return run.summarize([100 + sign * cost for cost in costs], better)

    steady, noisy = side(0, 1, 2), side(-20, 0, 20)
    bound = 0.1
    assert compare.verdict(steady, side(0, 1, 2), better, bound) == "same"
    assert compare.verdict(steady, side(3, 4, 5), better, bound) == "same"
    assert compare.verdict(steady, side(30, 31, 32), better, bound) == "worse"
    assert compare.verdict(steady, side(-30, -31, -32), better, bound) == "better"
    # spread wider than the bound: only full separation settles it
    assert compare.verdict(noisy, side(-10, 5, 25), better, bound) == "unresolved"
    assert compare.verdict(noisy, side(30, 45, 60), better, bound) == "worse"
    assert compare.verdict(noisy, side(-30, -45, -60), better, bound) == "better"
