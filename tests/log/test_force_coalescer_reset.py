"""A log stream's last-write instant must not survive a crash.

Regression: ``LogStream._last_write_at`` used to persist across a
crash and restart, so an empty force issued at the same simulated
instant as a PRE-crash write was still counted as coalesced — inflating
``coalesced_forces`` for the recovered incarnation, whose write history
starts empty.  A crash now reopens every stream (``LogStream.reopen``),
and recovery fills the incarnation the crash built.
"""

import pytest

from repro.common.messages import MessageKind
from repro.log.records import MessageRecord

from ..conftest import deploy_counter


def _append_and_force(process):
    process.log.append(
        MessageRecord(
            context_id=1,
            kind=MessageKind.INCOMING_CALL,
            message=None,
            short=True,
        )
    )
    assert process.streams[0].force() is True


@pytest.mark.no_conformance_check
class TestResetOnCrash:
    def test_same_instant_empty_force_after_crash_is_not_coalesced(
        self, runtime
    ):
        process, __ = deploy_counter(runtime)
        _append_and_force(process)

        # Baseline sanity: pre-crash, a same-instant empty force IS the
        # coalescing case the accounting is for.
        before = process.log.stats.coalesced_forces
        assert process.streams[0].force() is False
        assert process.log.stats.coalesced_forces == before + 1

        process.crash()
        # Same simulated instant, but the write belonged to the previous
        # incarnation: the recovered process has not written yet, so
        # nothing was coalesced.
        before = process.log.stats.coalesced_forces
        assert process.streams[0].force() is False
        assert process.log.stats.coalesced_forces == before

    def test_restart_also_forgets_the_last_write(self, runtime):
        # The creation record's force is the pre-crash write; recovery
        # needs a log it can replay, so no synthetic record here.
        process, __ = deploy_counter(runtime)
        process.crash()
        process.machine.recovery_service.restart(process)
        before = process.log.stats.coalesced_forces
        assert process.streams[0].force() is False
        assert process.log.stats.coalesced_forces == before

    def test_restart_fills_the_incarnation_the_crash_built(self, runtime):
        """Recovery builds no second incarnation: a session's process
        frame, pushed before it drives the restart, must stay live."""
        process, __ = deploy_counter(runtime)
        process.crash()
        incarnation = process.incarnation
        process.machine.recovery_service.restart(process)
        assert process.incarnation is incarnation
        assert process.incarnation.context_table


@pytest.mark.no_conformance_check
class TestPipelinedStatsReset:
    """Regression: the pipelined batch counters (``pipelined_gated``,
    ``pipelined_write_skips``) used to survive a crash even though they
    count gating decisions taken against watermarks the crash wiped —
    the recovered incarnation's history starts empty, exactly like
    ``_last_write_at``."""

    def _inflate(self, process):
        stream = process.streams[0]
        stream.note_gated()
        stream.note_write_skip(2)
        stats = process.log.stats
        assert stats.pipelined_gated == 3
        assert stats.pipelined_write_skips == 1

    def test_crash_zeroes_pipelined_batch_counters(self, runtime):
        process, __ = deploy_counter(runtime)
        _append_and_force(process)
        self._inflate(process)
        process.crash()
        stats = process.log.stats
        assert stats.pipelined_gated == 0
        assert stats.pipelined_write_skips == 0
