"""The pytest conformance oracle, end to end.

The autouse fixture (wired in ``tests/conftest.py``) sweeps every
runtime a test creates; these tests additionally run the trace checker
explicitly over a recovery workload's log, prove identical runs produce
identical record sequences, and exercise the opt-out marker.
"""

from __future__ import annotations

import pytest

from repro import PhoenixRuntime
from repro.analysis.trace import TraceEvent
from repro.analysis.trace_check import (
    check_process,
    check_runtime,
    record_signature,
)
from repro.common.messages import MessageKind
from tests.conftest import deploy_counter, deploy_pair


class TestOracleWiring:
    def test_oracle_fixture_is_autouse(self, request):
        assert "protocol_conformance_oracle" in request.fixturenames

    @pytest.mark.no_conformance_check
    def test_marker_opts_a_test_out(self, runtime):
        """With the marker, a seeded violation must NOT fail teardown
        (this test errors at teardown if opt-out ever breaks)."""
        process, counter = deploy_counter(runtime)
        counter.increment()
        # a fake send event with volatile bytes outstanding
        process.streams[0].trace.record(TraceEvent(
            kind=MessageKind.OUTGOING_CALL,
            end_lsn=process.log.end_lsn + 64,
            stable_lsn=process.log.stable_lsn,
        ))
        assert check_process(process)  # the violation is detectable


class TestRecoveryLogsConform:
    def test_trace_checker_covers_a_recovery_log(self, runtime):
        process, counter = deploy_counter(runtime)
        assert counter.increment() == 1
        assert counter.increment() == 2
        runtime.crash_process(process)
        assert counter.increment() == 3  # auto-recovery + replay
        assert process.recovery_count == 1
        assert process.streams[0].trace.events(), "policy decisions traced"
        assert check_process(process) == []

    def test_two_tier_crashes_conform(self, runtime):
        store_process, store, relay_process, relay = deploy_pair(runtime)
        relay.put("k", 1)
        runtime.crash_process(store_process)
        relay.put("k", 2)
        runtime.crash_process(relay_process)
        assert relay.peek("k") == 2
        assert check_runtime(runtime) == []

    def test_baseline_config_conforms(self, baseline_runtime):
        process, counter = deploy_counter(baseline_runtime)
        counter.increment()
        runtime = baseline_runtime
        runtime.crash_process(process)
        assert counter.increment() == 2
        assert check_process(process) == []


class TestReplayDeterminism:
    @staticmethod
    def _run(crash_at: int | None):
        runtime = PhoenixRuntime()
        process, counter = deploy_counter(runtime)
        for index in range(6):
            if index == crash_at:
                runtime.crash_process(process)
            counter.increment()
        return record_signature(process.log)

    def test_identical_runs_produce_identical_record_sequences(self):
        assert self._run(None) == self._run(None)

    def test_identical_crashed_runs_produce_identical_sequences(self):
        assert self._run(3) == self._run(3)
