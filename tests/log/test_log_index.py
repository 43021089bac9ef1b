"""The log's LSN index and read-path accounting.

The index must stay consistent with the stable file through every event
that changes it — flush, prefix truncation, volatile wipe (LSN reuse!),
tail repair, and a fresh manager opening a pre-existing log — and the
``reads`` / ``bytes_read`` / ``index_hits`` counters must show that point
reads fetch only their own frame, never the whole log.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import (
    GlobalCallId,
    MessageKind,
    MethodCallMessage,
    ReplyMessage,
)
from repro.errors import (
    InvariantViolationError,
    LogCorruptionError,
    SerializationError,
)
from repro.log import (
    BeginCheckpointRecord,
    CheckpointContextEntry,
    CheckpointContextTableRecord,
    CheckpointLastCallRecord,
    CheckpointRemoteTypeRecord,
    ContextStateRecord,
    CreationRecord,
    EndCheckpointRecord,
    LastCallReplyRecord,
    LogManager,
    MessageRecord,
    frame,
    iter_frames,
    log_manager,
    record_kind,
)
from repro.sim import Cluster


def record(n: object) -> MessageRecord:
    return MessageRecord(
        context_id=1,
        kind=MessageKind.INCOMING_CALL,
        message=MethodCallMessage(
            target_uri="phoenix://alpha/p/1", method="m", args=(n,)
        ),
    )


@pytest.fixture
def machine():
    return Cluster().machine("alpha")


@pytest.fixture
def log(machine):
    return LogManager("p1", machine.disk, machine.stable_store)


def payload_of(rec: MessageRecord) -> object:
    return rec.message.args[0]


class TestPointReadCost:
    def test_read_record_fetches_only_its_frame(self, log):
        lsns = [log.append(record(i)) for i in range(100)]
        log.force()
        frame_len = lsns[1] - lsns[0]
        before = log.stats.bytes_read
        assert payload_of(log.read_record(lsns[50])) == 50
        assert log.stats.bytes_read - before == frame_len
        assert log.stats.index_hits >= 1

    def test_read_records_fetches_only_the_chain_frames(self, log):
        lsns = [log.append(record(i)) for i in range(100)]
        log.force()
        frame_len = lsns[1] - lsns[0]
        chain = lsns[3::7]
        before = log.stats.bytes_read
        got = [(lsn, payload_of(r)) for lsn, r in log.read_records(chain)]
        assert got == [(lsn, 3 + 7 * k) for k, lsn in enumerate(chain)]
        assert log.stats.bytes_read - before == frame_len * len(chain)
        # an element that is not a record boundary errors like read_record
        with pytest.raises(LogCorruptionError):
            list(log.read_records([lsns[1], lsns[2] + 1]))

    def test_scan_from_lsn_reads_only_the_suffix(self, log):
        lsns = [log.append(record(i)) for i in range(100)]
        log.force()
        before = log.stats.bytes_read
        got = [payload_of(r) for _, r in log.scan(lsns[90])]
        assert got == list(range(90, 100))
        assert log.stats.bytes_read - before == log.stable_lsn - lsns[90]

    def test_unindexed_offset_still_errors_like_seed(self, log):
        lsns = [log.append(record(i)) for i in range(3)]
        log.force()
        # an offset inside a frame is not a record boundary
        with pytest.raises(LogCorruptionError):
            log.read_record(lsns[1] + 1)


class TestTruncatePrefixBoundary:
    def test_reads_and_scans_across_the_boundary(self, log):
        lsns = [log.append_and_force(record(i)) for i in range(6)]
        keep_from = lsns[3]
        log.truncate_prefix(keep_from)
        # survivors readable point-wise and via scan
        for i in (3, 4, 5):
            assert payload_of(log.read_record(lsns[i])) == i
        assert [payload_of(r) for _, r in log.scan()] == [3, 4, 5]
        assert [payload_of(r) for _, r in log.scan(lsns[4])] == [4, 5]
        # reclaimed LSNs stay rejected
        with pytest.raises(InvariantViolationError, match="garbage"):
            log.read_record(lsns[0])

    def test_appends_after_truncation_stay_indexed(self, log):
        lsns = [log.append_and_force(record(i)) for i in range(4)]
        log.truncate_prefix(lsns[2])
        new_lsn = log.append_and_force(record("new"))
        assert payload_of(log.read_record(new_lsn)) == "new"
        assert [payload_of(r) for _, r in log.scan()] == [2, 3, "new"]


class TestWipeVolatile:
    def test_lsn_reuse_does_not_leave_stale_index_entries(self, log):
        log.append_and_force(record("stable"))
        log.append(record("lost"))  # buffered, dies with the process
        reused_lsn = log.end_lsn - (log.end_lsn - log.stable_lsn)
        log = LogManager(log.process_name, log.disk, log.stable_store)
        # the wiped record's LSN is reused by the next append
        lsn = log.append(record("after-crash"))
        assert lsn == reused_lsn == log.stable_lsn
        log.force()
        assert payload_of(log.read_record(lsn)) == "after-crash"
        assert [payload_of(r) for _, r in log.scan()] == [
            "stable",
            "after-crash",
        ]


class TestRepairTail:
    def test_index_consistent_after_torn_tail_repair(self, log):
        lsns = [log.append_and_force(record(i)) for i in range(3)]
        stable = log.stable_store.open("p1.log")
        stable.truncate(stable.size - 3)  # tear the last frame
        log.repair_tail()
        for i in (0, 1):
            assert payload_of(log.read_record(lsns[i])) == i
        assert [payload_of(r) for _, r in log.scan()] == [0, 1]
        # the torn record's LSN now points at the stable end: no record
        with pytest.raises(InvariantViolationError, match="no record"):
            log.read_record(lsns[2])

    def test_point_reads_after_external_truncate_without_repair(self, log):
        """Even before repair_tail runs, the index must notice the file
        shrank instead of serving stale offsets."""
        lsns = [log.append_and_force(record(i)) for i in range(3)]
        stable = log.stable_store.open("p1.log")
        stable.truncate(stable.size - 3)
        assert payload_of(log.read_record(lsns[0])) == 0
        with pytest.raises(LogCorruptionError):
            log.read_record(lsns[2])


class TestLazyIndexOverExistingFile:
    def test_second_manager_reads_what_the_first_wrote(self, machine):
        first = LogManager("p1", machine.disk, machine.stable_store)
        lsns = [first.append(record(i)) for i in range(10)]
        first.force()
        # a restarted process opens the same stable file cold
        second = LogManager("p1", machine.disk, machine.stable_store)
        assert payload_of(second.read_record(lsns[7])) == 7
        # the lazy build indexed everything: the next point read is a hit
        hits = second.stats.index_hits
        assert payload_of(second.read_record(lsns[3])) == 3
        assert second.stats.index_hits == hits + 1

    def test_flush_onto_unindexed_file_keeps_reads_correct(self, machine):
        first = LogManager("p1", machine.disk, machine.stable_store)
        old_lsn = first.append_and_force(record("old"))
        second = LogManager("p1", machine.disk, machine.stable_store)
        new_lsn = second.append_and_force(record("new"))
        assert payload_of(second.read_record(old_lsn)) == "old"
        assert payload_of(second.read_record(new_lsn)) == "new"


class TestPositionedMisses:
    """An LSN the index does not hold raises a typed error that names
    the log and the LSN, through every reader: ``read_record``,
    ``read_records`` (after the LSNs before it) and ``scan``."""

    @pytest.fixture
    def damaged(self, machine):
        """A reopened log whose third of five frames fails its CRC: the
        first read's build refuses it and indexes the two before it."""
        first = LogManager("p1", machine.disk, machine.stable_store)
        lsns = [first.append(record(i)) for i in range(5)]
        first.force()
        stable = machine.stable_store.open("p1.log")
        data = bytearray(stable.read())
        data[lsns[3] - 1] ^= 0x01  # the last payload byte of frame 2
        stable.overwrite(bytes(data))
        return LogManager("p1", machine.disk, machine.stable_store), lsns

    @staticmethod
    def assert_every_reader_raises(log, lsn, error, match):
        with pytest.raises(error, match=match):
            log.read_record(lsn)
        got = []
        with pytest.raises(error, match=match):
            for item in log.read_records([log.base_lsn, lsn]):
                got.append(item)
        assert [at for at, __ in got] == [log.base_lsn]
        with pytest.raises(error, match=match):
            list(log.scan(lsn))

    def test_not_a_record_boundary(self, log):
        lsns = [log.append(record(i)) for i in range(3)]
        log.force()
        inside = lsns[1] + 1
        self.assert_every_reader_raises(
            log,
            inside,
            LogCorruptionError,
            f"^log 'p1', LSN {inside}: not a record boundary$",
        )
        with pytest.raises(LogCorruptionError) as raised:
            log.read_record(inside)
        assert raised.value.lsn == inside

    def test_past_a_refused_frame(self, damaged):
        log, lsns = damaged
        refused = f"^log 'p1', LSN {lsns[2]}: CRC mismatch at offset "
        # a whole frame past the refused one, the refused frame itself
        # and a spot inside it all raise the refusal
        for lsn in (lsns[4], lsns[2], lsns[2] + 3):
            self.assert_every_reader_raises(
                log, lsn, LogCorruptionError, refused
            )
        with pytest.raises(LogCorruptionError) as raised:
            log.read_record(lsns[4])
        assert raised.value.lsn == lsns[2]
        # the frames before it read; a scan yields them, then raises
        assert payload_of(log.read_record(lsns[1])) == 1
        got = []
        with pytest.raises(LogCorruptionError, match=refused):
            for lsn, rec in log.scan():
                got.append(lsn)
        assert got == lsns[:2]
        with pytest.raises(LogCorruptionError, match=refused):
            log.component_chains(0)

    def test_each_raise_of_the_refusal_is_a_fresh_error(self, damaged):
        log, lsns = damaged
        try:
            log.read_record(lsns[4])
        except LogCorruptionError as handled:
            first = handled
            # raised inside a handler, the refusal chains to it
            with pytest.raises(LogCorruptionError) as inside:
                log.component_chains(0)
            assert inside.value.__context__ is first
        # a later raise outside any handler carries no earlier context
        for read in (
            lambda: log.read_record(lsns[4]),
            lambda: list(log.scan()),
            lambda: log.component_chains(0),
        ):
            with pytest.raises(LogCorruptionError) as outside:
                read()
            assert outside.value is not first
            assert outside.value.__context__ is None
            assert str(outside.value) == str(first)

    def test_below_the_base(self, log):
        lsns = [log.append_and_force(record(i)) for i in range(4)]
        log.truncate_prefix(lsns[2])
        match = (
            f"^log 'p1': LSN {lsns[1]} was garbage-collected "
            f"\\(base {lsns[2]}\\)$"
        )
        with pytest.raises(InvariantViolationError, match=match):
            log.read_record(lsns[1])
        with pytest.raises(InvariantViolationError, match=match):
            list(log.read_records([lsns[1], lsns[2]]))
        # a scan clamps its start to the base instead
        assert [lsn for lsn, __ in log.scan(lsns[1])] == lsns[2:]

    def test_the_stable_end(self, log):
        lsns = [log.append(record(i)) for i in range(3)]
        log.force()
        log.append(record("buffered"))
        end = log.stable_lsn
        match = f"^log 'p1': no record at LSN {end}$"
        with pytest.raises(InvariantViolationError, match=match):
            log.read_record(end)
        got = []
        with pytest.raises(InvariantViolationError, match=match):
            for item in log.read_records([lsns[2], end]):
                got.append(item)
        assert [lsn for lsn, __ in got] == [lsns[2]]
        # a scan from the stable end is empty: nothing is stable there
        assert list(log.scan(end)) == []


class TestAppendExceptionSafety:
    def test_failed_encode_leaves_no_partial_frame(self, log):
        log.append(record(0))
        with pytest.raises(SerializationError):
            log.append(record(object()))  # not a loggable value type
        lsn = log.append(record(1))
        log.force()
        assert [payload_of(r) for _, r in log.scan()] == [0, 1]
        assert payload_of(log.read_record(lsn)) == 1


# ----------------------------------------------------------------------
# the kind column: scan(from_lsn, kinds=...)
# ----------------------------------------------------------------------
CALL = GlobalCallId("alpha", 1, 1, 1)

#: One constructor per record class, each taking a small integer.
MAKERS = (
    record,
    lambda n: CreationRecord(
        context_id=n, component_lid=n, class_name="C", args=(n,)
    ),
    lambda n: ContextStateRecord(context_id=n, incoming_calls_handled=n),
    lambda n: LastCallReplyRecord(
        context_id=n,
        caller_key=CALL.caller_key,
        call_id=CALL,
        reply=ReplyMessage(call_id=CALL, value=n),
    ),
    lambda n: BeginCheckpointRecord(context_id=-1),
    lambda n: CheckpointContextTableRecord(
        context_id=-1, entries=(CheckpointContextEntry(n, "u", -1, n),)
    ),
    lambda n: CheckpointRemoteTypeRecord(context_id=-1),
    lambda n: CheckpointLastCallRecord(context_id=-1),
    lambda n: EndCheckpointRecord(context_id=-1, begin_lsn=n),
)
KINDS = tuple(type(make(0)) for make in MAKERS)
#: Context ids at the edges of the signed field's widths: one byte
#: (-1, 0, 127), two (128, -129) and more.
CONTEXT_IDS = (-1, 0, 127, 128, -129, 1 << 20, -(1 << 40))


def _fresh(records, machine):
    log = LogManager("p1", machine.disk, machine.stable_store, 256)
    for rec in records:
        log.append(rec)
    log.force()
    return log


def _truncated(records, machine):
    log = _fresh(records, machine)
    lsns = [lsn for lsn, __ in log.scan()]
    log.truncate_prefix(lsns[len(lsns) // 3])
    return log


def _repaired(records, machine):
    log = _fresh(records, machine)
    stable = machine.stable_store.open("p1.log")
    stable.truncate(stable.size - 3)  # tear the last frame
    log.repair_tail()
    return log


def _shrunk(records, machine):
    """The file lost its last frame under the index (no repair yet):
    reads that reach the frame raise a torn error at its LSN."""
    log = _fresh(records, machine)
    lsns = [lsn for lsn, __ in log.scan()]
    machine.stable_store.open("p1.log").truncate(lsns[-1])
    return log


def _reopened(records, machine):
    _fresh(records, machine)
    return LogManager("p1", machine.disk, machine.stable_store)


def _flushed_onto_unindexed(records, machine):
    half = len(records) // 2
    _fresh(records[:half], machine)
    second = LogManager("p1", machine.disk, machine.stable_store)
    for rec in records[half:]:
        second.append(rec)
    second.force()
    return second


INDEX_WRITERS = (
    _fresh,
    _truncated,
    _repaired,
    _shrunk,
    _reopened,
    _flushed_onto_unindexed,
)


def _lost_frame(log) -> int | None:
    """The first indexed frame past the stable file's end (the file was
    cut under the index), or ``None``."""
    size = log.stable_store.open("p1.log").size
    for lsn, length in zip(log._index_lsns, log._index_lengths):
        if lsn - log.base_lsn + length > size:
            return lsn
    return None


def assert_filtered_scans_agree(log, kinds, pick=None):
    """``scan(kinds=K)`` is the unfiltered scan filtered by type, and
    ``component_chains`` is it grouped by context id, from every record
    boundary (or only the ``pick``-th one).  On a file cut under the
    index, the unfiltered scan is the records before the first lost
    frame, and a scan that selects that frame raises a torn error there;
    the chains, which read no frame, still hold it."""
    lost = _lost_frame(log)
    if lost is None:
        everything = list(log.scan())
    else:
        with pytest.raises(LogCorruptionError, match=f"LSN {lost}: torn"):
            list(log.scan())
        lost_at = log._index_lsns.index(lost)
        everything = list(log.read_records(log._index_lsns[:lost_at]))
        lost_kind = log._index_kinds[lost_at]
        lost_context = log._index_contexts[lost_at]
    end = log.base_lsn + log.stable_store.open("p1.log").size
    starts = [0] + [lsn for lsn, __ in everything] + [end]
    if pick is not None:
        starts = [starts[pick % len(starts)]]
    for start in starts:
        expected = [
            (lsn, rec)
            for lsn, rec in everything
            if lsn >= start and type(rec) in kinds
        ]
        chains = {}
        for lsn, rec in everything:
            if lsn >= start:
                chains.setdefault(rec.context_id, []).append(lsn)
        if lost is not None and start <= lost:
            chains.setdefault(lost_context, []).append(lost)
            if lost_kind in {record_kind(cls) for cls in kinds}:
                with pytest.raises(
                    LogCorruptionError, match=f"LSN {lost}: torn"
                ):
                    list(log.scan(start, kinds=kinds))
                expected = None
        if expected is not None:
            assert list(log.scan(start, kinds=kinds)) == expected
        assert log.component_chains(start) == chains
    # the four index columns stay parallel
    assert (
        len(log._index_lsns)
        == len(log._index_lengths)
        == len(log._index_kinds)
        == len(log._index_contexts)
    )


class TestFilteredScan:
    @given(
        mix=st.lists(
            st.tuples(
                st.integers(0, len(MAKERS) - 1),
                st.integers(0, 300),
                st.sampled_from(CONTEXT_IDS)
                | st.integers(-(1 << 70), 1 << 70),
            ),
            min_size=3,
            max_size=40,
        ),
        kinds=st.sets(st.sampled_from(KINDS)),
        pick=st.integers(0, 100),
        build=st.sampled_from(INDEX_WRITERS),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_unfiltered_scan_filtered_by_type(
        self, mix, kinds, pick, build
    ):
        records = [
            replace(MAKERS[which](n), context_id=cid)
            for which, n, cid in mix
        ]
        log = build(records, Cluster().machine("alpha"))
        assert_filtered_scans_agree(log, kinds, pick)

    def test_every_index_writer_from_every_boundary(self):
        records = [
            replace(
                MAKERS[i % len(MAKERS)](i),
                context_id=CONTEXT_IDS[i % len(CONTEXT_IDS)],
            )
            for i in range(30)
        ]
        for build in INDEX_WRITERS:
            log = build(records, Cluster().machine("alpha"))
            for kind in KINDS:
                assert_filtered_scans_agree(log, {kind})
            assert_filtered_scans_agree(log, set(KINDS))
            assert_filtered_scans_agree(log, set())

    def test_unselected_frames_are_not_decoded(self, log, monkeypatch):
        for i in range(50):
            log.append(record(i))
        creation_lsn = log.append(MAKERS[1](7))
        for i in range(50):
            log.append(record(i))
        log.force()
        decoded = []
        real = log_manager.decode_record
        monkeypatch.setattr(
            log_manager,
            "decode_record",
            lambda payload: decoded.append(1) or real(payload),
        )
        assert list(log.scan(kinds={CreationRecord})) == [
            (creation_lsn, MAKERS[1](7))
        ]
        assert len(decoded) == 1

    def test_reads_only_the_selected_frames(self, log):
        """From an index boundary the scan fetches the frames it picked,
        one stable read per run of neighbours, and none of the rest."""
        creations = []
        for i in range(60):
            log.append(record(i))
            if i % 20 == 10:
                creations.append(log.append(MAKERS[1](i)))
                creations.append(log.append(MAKERS[1](i + 1)))
        log.force()
        length = dict(zip(log._index_lsns, log._index_lengths))
        chosen_bytes = sum(length[lsn] for lsn in creations)
        before = log.stats.snapshot()
        found = [lsn for lsn, __ in log.scan(kinds={CreationRecord})]
        assert found == creations
        assert log.stats.bytes_read - before.bytes_read == chosen_bytes
        assert log.stats.reads - before.reads == 3  # three adjacent pairs
        # a torn tail the first read's build refused: the selected
        # frames, then the refusal, with no byte past it read
        stable = log.stable_store.open("p1.log")
        stable.truncate(stable.size - 3)
        log = LogManager("p1", log.disk, log.stable_store)
        assert log.read_record(creations[0]) == MAKERS[1](10)
        before = log.stats.snapshot()
        with pytest.raises(LogCorruptionError, match="torn frame payload"):
            list(log.scan(kinds={CreationRecord}))
        assert log.stats.bytes_read - before.bytes_read == chosen_bytes

    def test_start_inside_a_frame_is_still_an_error(self, log):
        lsns = [log.append_and_force(MAKERS[i](i)) for i in range(3)]
        with pytest.raises(LogCorruptionError, match=f"LSN {lsns[1] + 1}"):
            list(log.scan(lsns[1] + 1, kinds={CreationRecord}))

    def test_kind_column_across_two_crashes(self, log):
        """crash -> recover -> crash -> recover: the column is rebuilt
        by a reopened manager and by ``repair_tail``, and a reused
        LSN takes the kind of the record that now lives there."""
        for i in range(6):
            log.append(MAKERS[i % 3](i))
        log.force()
        reused = log.append(MAKERS[1](99))  # a creation record, buffered
        log = LogManager(log.process_name, log.disk, log.stable_store)
        assert_filtered_scans_agree(log, {CreationRecord})
        log.repair_tail()
        assert_filtered_scans_agree(log, {CreationRecord})
        # the next incarnation writes a *message* record at that LSN
        assert log.append_and_force(record("second life")) == reused
        log.append_and_force(MAKERS[1](100))
        stable = log.stable_store.open("p1.log")
        stable.truncate(stable.size - 2)  # the second crash tears the tail
        log = LogManager(log.process_name, log.disk, log.stable_store)
        log.repair_tail()
        assert [lsn for lsn, __ in log.scan(kinds={CreationRecord})] == [
            lsn
            for lsn, rec in log.scan()
            if isinstance(rec, CreationRecord)
        ]
        assert reused in [lsn for lsn, __ in log.scan(kinds={MessageRecord})]
        assert_filtered_scans_agree(log, {CreationRecord, MessageRecord})

    def test_unknown_kind_is_never_filtered_out(self, machine):
        """A CRC-valid frame whose kind byte names no record class
        raises from the kind lookup wherever the index meets it."""
        first = _fresh([MAKERS[1](1), record(2), MAKERS[1](3)], machine)
        bad_lsn = [lsn for lsn, __ in first.scan()][1]
        stable = machine.stable_store.open("p1.log")
        frames = [payload for __, payload, ___ in iter_frames(stable.read())]
        frames[1] = b"\xee" + frames[1][1:]
        stable.overwrite(b"".join(frame(payload) for payload in frames))
        # lazily indexed by a fresh manager, filtered or not
        for kinds in (None, {CreationRecord}):
            reopened = LogManager("p1", machine.disk, machine.stable_store)
            with pytest.raises(LogCorruptionError) as raised:
                list(reopened.scan(kinds=kinds))
            assert "unknown record tag 238" in str(raised.value)
            assert f"log 'p1', LSN {bad_lsn}:" in str(raised.value)
        # and by the validating walk of a restart
        with pytest.raises(LogCorruptionError, match=f"LSN {bad_lsn}:"):
            first.repair_tail()
        assert stable.size == first.stable_lsn  # nothing was cut off

    @pytest.mark.parametrize(
        "malformed",
        [b"\x05", b"\x01\x05\x01\x00"],
        ids=["shorter-than-two-bytes", "id-length-overruns"],
    )
    def test_malformed_context_field_is_never_truncated(
        self, machine, malformed
    ):
        """A CRC-valid tail frame whose context id field cannot be read
        is corruption, not a torn write: the restart walk names it, and
        the chains never silently stop short of it."""
        first = _fresh([record(1), MAKERS[1](2), record(3)], machine)
        *good, bad_lsn = [lsn for lsn, __ in first.scan()]
        stable = machine.stable_store.open("p1.log")
        frames = [payload for __, payload, ___ in iter_frames(stable.read())]
        frames[-1] = malformed
        stable.overwrite(b"".join(frame(payload) for payload in frames))
        size = stable.size
        with pytest.raises(
            LogCorruptionError, match=f"log 'p1', LSN {bad_lsn}: context id"
        ):
            first.repair_tail()
        assert stable.size == size  # nothing was cut off
        # a fresh manager's lazy index stops at the frame, and the
        # chains read past it rather than end there
        reopened = LogManager("p1", machine.disk, machine.stable_store)
        with pytest.raises(LogCorruptionError, match=f"LSN {bad_lsn}:"):
            reopened.component_chains(0)
        assert reopened._index_lsns == good
