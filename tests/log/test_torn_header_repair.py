"""Crash-inside-frame-header audit (crash-point sweep satellite).

A torn stable write can leave *any* prefix of a frame on disk — including
slices of the 10-byte frame header itself: a bare magic byte (1), a cut
length prefix (3), or one byte short of a complete header (9).  These are
the ``HEADER_CUTS`` buckets the sweep tears every flush at.  The framing
layer must classify every such prefix as a torn tail (truncate, recover)
rather than decode garbage, and the log manager's LSN index must never
point past what ``repair_tail`` will keep.
"""

import pytest

from repro.common import MessageKind, MethodCallMessage
from repro.errors import (
    InvariantViolationError,
    LogCorruptionError,
    PartialWriteError,
)
from repro.faults.plan import HEADER_CUTS
from repro.log import LogManager, MessageRecord
from repro.log.serialization import (
    FramedFile,
    frame,
    frame_overhead,
    iter_frames,
)
from repro.sim import Cluster


def record(n) -> MessageRecord:
    return MessageRecord(
        context_id=1,
        kind=MessageKind.INCOMING_CALL,
        message=MethodCallMessage(
            target_uri="phoenix://alpha/p/1", method="m", args=(n,)
        ),
    )


@pytest.fixture
def log():
    machine = Cluster().machine("alpha")
    return LogManager("p1", machine.disk, machine.stable_store)


def payload_of(rec) -> object:
    return rec.message.args[0]


# ----------------------------------------------------------------------
# framing layer
# ----------------------------------------------------------------------
class TestIterFramesHeaderSlices:
    def test_yields_offsets_and_payloads(self):
        data = frame(b"one") + frame(b"two")
        frames = list(iter_frames(data))
        assert [payload for __, payload, ___ in frames] == [b"one", b"two"]
        assert frames[0][2] == frames[1][0]  # contiguous offsets
        assert frames[1][2] == len(data)

    @pytest.mark.parametrize("cut", HEADER_CUTS)
    def test_header_slice_is_a_torn_frame_not_garbage(self, cut):
        assert cut < frame_overhead()
        good = frame(b"payload")
        data = good + frame(b"torn")[:cut]
        frames = []
        with pytest.raises(LogCorruptionError, match="torn frame header"):
            for item in iter_frames(data):
                frames.append(item)
        # everything before the slice decoded cleanly
        assert [payload for __, payload, ___ in frames] == [b"payload"]


def framed_file(data: bytes) -> FramedFile:
    """A framed file ``t.log`` holding ``data``."""
    machine = Cluster().machine("alpha")
    framed = FramedFile(machine.stable_store, machine.disk, "t.log")
    framed.stable.append(data)
    return framed


class TestRepairFramedTail:
    @pytest.mark.parametrize("cut", HEADER_CUTS)
    def test_truncates_header_slice(self, cut):
        good = frame(b"keep")
        framed = framed_file(good + frame(b"gone")[:cut])
        assert framed.repair(framed.walk()) == len(good)
        assert framed.stable.read() == good

    def test_truncates_torn_payload(self):
        good = frame(b"keep")
        torn = frame(b"a-longer-payload-than-the-header")
        framed = framed_file(good + torn[: frame_overhead() + 5])
        assert framed.repair(framed.walk()) == len(good)
        assert framed.stable.read() == good

    def test_interior_corruption_is_not_silently_dropped(self):
        first = frame(b"first")
        data = bytearray(first + frame(b"second") + frame(b"third"))
        data[len(first) + 2] ^= 0xFF  # corrupt mid-stream, good data after
        framed = framed_file(bytes(data))
        with pytest.raises(LogCorruptionError, match="'t.log', frame 1: "):
            framed.repair(framed.walk())
        assert framed.stable.size == len(data)  # nothing was chopped


# ----------------------------------------------------------------------
# log manager: torn flush -> index boundary -> repair
# ----------------------------------------------------------------------
def tear_next_flush(log, cut: int) -> None:
    """Arm the stable file so the next flush persists only ``cut``
    bytes, exactly like the sweep's ``log.flush`` torn-write points."""
    log.stable_store.open(f"{log.process_name}.log").arm_partial_write(cut)


def index_end(log) -> int:
    """The LSN just past the last indexed frame."""
    if not log._index_lsns:
        return log.base_lsn
    return log._index_lsns[-1] + log._index_lengths[-1]


class TestTornFlushIndexBoundary:
    @pytest.mark.parametrize("cut", HEADER_CUTS)
    def test_index_never_past_repaired_tail(self, log, cut):
        log.append_and_force(record("good"))
        good_end = log.stable_lsn
        log.append(record("torn"))
        tear_next_flush(log, cut)
        with pytest.raises(PartialWriteError):
            log.force()
        # the torn flush promoted nothing: the index stops at the bytes
        # repair will keep, even though the stable file is longer
        assert index_end(log) == good_end
        repaired = log.repair_tail()
        assert repaired == good_end
        assert index_end(log) == repaired
        assert log.stable_lsn == repaired

    @pytest.mark.parametrize("cut", HEADER_CUTS)
    def test_repair_keeps_whole_frames_of_a_torn_multi_record_flush(
        self, log, cut
    ):
        """One flush carrying two frames, torn inside the SECOND frame's
        header: the first frame is complete on disk and must survive."""
        log.append_and_force(record("stable"))
        first_lsn = log.append(record("whole"))
        second_lsn = log.append(record("sliced"))
        first_len = second_lsn - first_lsn
        tear_next_flush(log, first_len + cut)
        with pytest.raises(PartialWriteError):
            log.force()
        repaired = log.repair_tail()
        assert repaired == first_lsn + first_len
        assert payload_of(log.read_record(first_lsn)) == "whole"
        assert [payload_of(r) for __, r in log.scan()] == ["stable", "whole"]
        with pytest.raises(InvariantViolationError, match="no record"):
            log.read_record(second_lsn)

    @pytest.mark.parametrize("cut", HEADER_CUTS)
    def test_appends_after_repair_reuse_the_torn_lsn(self, log, cut):
        log.append_and_force(record("good"))
        torn_lsn = log.append(record("torn"))
        tear_next_flush(log, cut)
        with pytest.raises(PartialWriteError):
            log.force()
        # The crash: buffered bytes are gone with the manager.
        log = LogManager(log.process_name, log.disk, log.stable_store)
        assert log.repair_tail() == torn_lsn
        new_lsn = log.append(record("retry"))
        assert new_lsn == torn_lsn  # LSN reuse over the repaired tail
        log.force()
        assert [payload_of(r) for __, r in log.scan()] == ["good", "retry"]
        assert index_end(log) == log.stable_lsn
