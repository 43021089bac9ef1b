"""The restart walk against the per-frame loop it replaced.

``LogManager._build`` — ``repair_tail``, and the first read of a manager
opened over old bytes — validates the stable log with one tight walk
(``serialization.validate_frames``: magic, bounds, CRC) and reads the
index's kind and context columns in bulk (``records.payload_columns``).
The reference below is the loop it used before: ``read_frame`` +
``payload_kind`` + ``payload_context`` per frame, with the torn-tail rule
written out: a short frame (a cut header, or a payload that overruns the
data) is torn when no whole frame follows it, searched for by a plain
filter over the index's boundaries or every frame magic.  Any other
damage raises ``read_frame``'s error (a payload that overruns the data
is a bad length field there) with its position: an LSN for a process
log, a frame index for ``FramedFile``'s other files.  The first-read
build raises nothing: it keeps the first error as its refusal.  Over the
same bytes —
torn at every cut, header slices included, bit-flipped in the interior,
holding zero- to two-byte payloads, unknown kind bytes and negative,
multi-byte and overrunning context ids — both must give the same
repaired end, the same four index columns and the same refusal, or raise
the same exception with the same message.  A manager that indexed the
bytes before they changed under it (``warm``) reads them through that
index: its scan raises the positioned error at the first frame the
change cut off or damaged.
"""

from dataclasses import replace
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import (
    GlobalCallId,
    MessageKind,
    MethodCallMessage,
    ReplyMessage,
)
from repro.errors import LogCorruptionError
from repro.faults.plan import HEADER_CUTS
from repro.log import (
    BeginCheckpointRecord,
    CreationRecord,
    LastCallReplyRecord,
    LogManager,
    MessageRecord,
    decode_record,
    encode_record,
    frame,
    iter_frames,
    payload_kind,
    read_frame,
)
from repro.log.records import payload_context
from repro.log.serialization import FramedFile
from repro.sim import Cluster

CALL = GlobalCallId("alpha", 1, 1, 1)
MAKERS = (
    lambda n: MessageRecord(
        context_id=0,
        kind=MessageKind.INCOMING_CALL,
        message=MethodCallMessage(
            target_uri="phoenix://alpha/p/1", method="m", args=(n,)
        ),
    ),
    lambda n: CreationRecord(context_id=0, component_lid=n, class_name="C"),
    lambda n: LastCallReplyRecord(
        context_id=0,
        caller_key=CALL.caller_key,
        call_id=CALL,
        reply=ReplyMessage(call_id=CALL, value=n),
    ),
    lambda n: BeginCheckpointRecord(context_id=0),
)

# ----------------------------------------------------------------------
# the reference: the per-frame loops the walk replaced
# ----------------------------------------------------------------------
MAGIC = frame(b"")[:2]


def reference_frame_after(data: bytes, bad: int, boundaries) -> bool:
    """Does a whole frame start past the bad one at ``bad``?  Tried at
    the indexed boundaries (physical offsets) past it, or, when none
    lies inside ``data``, at every frame magic past it."""
    candidates = [at for at in boundaries if bad < at < len(data)] or [
        at for at in range(bad + 1, len(data)) if data[at:at + 2] == MAGIC
    ]
    for at in candidates:
        try:
            read_frame(data, at)
        except LogCorruptionError:
            continue
        return True
    return False


def reference_torn(
    data: bytes, bad: int, exc: LogCorruptionError, boundaries
) -> bool:
    """Is ``read_frame``'s error ``exc`` at ``bad`` a torn tail?  A torn
    write keeps a prefix of what it wrote, so only a short frame with no
    whole frame after it is; a frame that fits and fails is damage."""
    short = str(exc).startswith("torn frame")
    return short and not reference_frame_after(data, bad, boundaries)


def reference_cause(data: bytes, bad: int, exc: LogCorruptionError):
    """``read_frame``'s error at ``bad``, which is not a torn tail,
    except that a payload running past the data (a short frame with a
    whole one after it) is a bad length."""
    if "torn frame payload" not in str(exc):
        return exc
    length = int.from_bytes(data[bad + 2 : bad + 6], "little")
    return f"bad frame length {length} at offset {bad}"


def reference_repair_tail(log: LogManager) -> int:
    data = log._stable.read()
    offset = 0
    last_good = 0
    lsns: list[int] = []
    lengths: list[int] = []
    kinds = bytearray()
    contexts: list[int] = []
    torn = False
    while True:
        try:
            result = read_frame(data, offset)
        except LogCorruptionError as exc:
            boundaries = [lsn - log._base_lsn for lsn in log._index_lsns]
            if not reference_torn(data, offset, exc, boundaries):
                lsn = log._base_lsn + offset
                cause = reference_cause(data, offset, exc)
                raise log._file.corruption(lsn, cause) from None
            log._stable.truncate(last_good)
            torn = True
            break
        if result is None:
            break
        payload, next_offset = result
        lsn = log._base_lsn + offset
        try:
            kinds.append(payload_kind(payload))
            contexts.append(payload_context(payload))
        except LogCorruptionError as exc:
            raise log._file.corruption(lsn, exc) from None
        lsns.append(lsn)
        lengths.append(next_offset - offset)
        offset = next_offset
        last_good = offset
    log._index_lsns = lsns
    log._index_lengths = lengths
    log._index_kinds = kinds
    log._index_contexts = contexts
    log._refusal = None
    log._built = True
    if torn:
        log._buffer_start_lsn = log._base_lsn + last_good
    return log._base_lsn + last_good


def reference_first_read_build(log: LogManager) -> None:
    if log._built:
        return
    data = log._stable.read()
    offset = 0
    while True:
        try:
            result = read_frame(data, offset)
            if result is None:
                break
            payload, next_offset = result
            kind = payload_kind(payload)
            context = payload_context(payload)
        except LogCorruptionError as exc:
            log._refusal = (log._base_lsn + offset, str(exc))
            break
        log._index_lsns.append(log._base_lsn + offset)
        log._index_lengths.append(next_offset - offset)
        log._index_kinds.append(kind)
        log._index_contexts.append(context)
        offset = next_offset
    log._built = True


def reference_scan(log: LogManager) -> list:
    """Every record the index holds, read frame by frame from the
    indexed bytes of the file as it is now.  A frame cut off the end raises a torn error at the
    first such frame, before any frame is decoded (the scan reads its
    frames as one run, checked against the file's size once); then the
    first frame that fails ``read_frame`` or ``decode_record`` raises at
    its LSN, and last the build's refusal."""
    reference_first_read_build(log)
    data = log._stable.read()
    header = len(frame(b""))
    base = log._base_lsn
    for lsn, length in zip(log._index_lsns, log._index_lengths):
        at = lsn - base
        if at + length > len(data):
            part = "header" if at + header > len(data) else "payload"
            cause = f"torn frame {part} at offset {at}"
            raise log._file.corruption(lsn, cause)
    # the run's bytes: a header damaged under the index cannot reach
    # past them
    if log._index_lsns:
        data = data[: log._index_lsns[-1] - base + log._index_lengths[-1]]
    records = []
    for lsn in log._index_lsns:
        try:
            payload, __ = read_frame(data, lsn - base)
            records.append((lsn, decode_record(payload)))
        except LogCorruptionError as exc:
            raise log._file.corruption(lsn, exc) from None
    if log._refusal is not None:
        raise log._file.corruption(*log._refusal)
    return records


def reference_repair_framed_tail(framed: FramedFile) -> int | None:
    data = framed.stable.read()
    last_good = 0
    index = 0
    try:
        for __, ___, next_offset in iter_frames(data):
            last_good = next_offset
            index += 1
    except LogCorruptionError as exc:
        if not reference_torn(data, last_good, exc, ()):
            cause = reference_cause(data, last_good, exc)
            raise framed.corruption(index, cause) from None
        framed.stable.truncate(last_good)
        return last_good
    return None


# ----------------------------------------------------------------------
# running both over the same bytes
# ----------------------------------------------------------------------


def _manager(data: bytes, origin: int, warm: bytes | None) -> LogManager:
    """A manager over ``data``; with ``warm``, one whose first read
    indexed those bytes (the stable file changed under it since)."""
    machine = Cluster().machine("alpha")
    stable = machine.stable_store.open("p1.log", create=True)
    stable.origin = origin
    stable.overwrite(warm if warm is not None else data)
    log = LogManager("p1", machine.disk, machine.stable_store)
    if warm is not None:
        list(log.read_records(()))  # a first read builds the index
        stable.overwrite(data)
    return log


def _state(log: LogManager) -> tuple:
    return (
        list(log._index_lsns),
        list(log._index_lengths),
        bytes(log._index_kinds),
        list(log._index_contexts),
        log._refusal,
        log.stable_lsn,
        log.stable_bytes(),
    )


def _outcome(operation, log: LogManager) -> tuple:
    try:
        result = operation(log)
    except LogCorruptionError as exc:
        return ("raised", type(exc), str(exc), _state(log))
    return ("returned", result, _state(log))


def assert_walks_agree(
    data: bytes, origin: int = 0, warm: bytes | None = None
) -> None:
    for real, reference in (
        (LogManager.repair_tail, reference_repair_tail),
        (LogManager._build_once, reference_first_read_build),
        (lambda log: list(log.scan()), reference_scan),
    ):
        got = _outcome(real, _manager(data, origin, warm))
        want = _outcome(reference, _manager(data, origin, warm))
        assert got == want, real.__name__
    outcomes = []
    for repair in (
        lambda framed: framed.repair(framed.walk()),
        reference_repair_framed_tail,
    ):
        machine = Cluster().machine("alpha")
        framed = FramedFile(machine.stable_store, machine.disk, "t.log")
        framed.stable.overwrite(data)
        try:
            outcomes.append((repair(framed), framed.stable.read()))
        except LogCorruptionError as exc:
            outcomes.append((type(exc), str(exc), framed.stable.read()))
    assert outcomes[0] == outcomes[1], "FramedFile.repair"


# ----------------------------------------------------------------------
# generated logs
# ----------------------------------------------------------------------
_context_ids = st.sampled_from(
    (-1, 0, 1, 127, 128, -129, 300, 1 << 20, -(1 << 40))
) | st.integers(-(1 << 70), 1 << 70)

_records = st.builds(
    lambda make, n, cid: encode_record(
        replace(MAKERS[make](n), context_id=cid)
    ),
    st.integers(0, len(MAKERS) - 1),
    st.integers(0, 300),
    _context_ids,
)

#: Payloads the writer never produces but a CRC can still vouch for:
#: zero to two bytes, an unknown kind byte, and a context id field of
#: any length byte (one byte, several, more than the payload holds).
_odd_payloads = st.one_of(
    st.binary(max_size=2),
    st.builds(
        lambda kind, size, rest: bytes([kind, size]) + rest,
        st.integers(0, 255),
        st.integers(0, 12),
        st.binary(max_size=10),
    ),
)

_payloads = st.lists(
    st.one_of(_records, _records, _records, _odd_payloads),
    max_size=10,
)

#: (what, where, how): where is reduced modulo the log's size or frame
#: count, so any integer names a valid spot.
_damage = st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 1 << 16), st.just(0)),
    st.tuples(
        st.just("header"), st.integers(0, 64), st.sampled_from(HEADER_CUTS)
    ),
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(0, 7)),
)


def _damaged(payloads: list[bytes], damages) -> bytes:
    frames = [frame(payload) for payload in payloads]
    data = bytearray(b"".join(frames))
    for what, where, how in damages:
        if not data:
            break
        if what == "cut":
            del data[where % len(data) :]
        elif what == "header":
            # keep ``how`` bytes of one frame's header, nothing after
            at = sum(map(len, frames[: where % len(frames)]))
            del data[at + how :]
        else:
            data[where % len(data)] ^= 1 << how
    return bytes(data)


class TestWalkMatchesPerFrameLoop:
    @given(
        payloads=_payloads,
        damages=st.lists(_damage, max_size=2),
        origin=st.sampled_from((0, 4096)),
        warm=st.booleans(),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_generated_logs(self, payloads, damages, origin, warm):
        data = _damaged(payloads, damages)
        undamaged = b"".join(frame(payload) for payload in payloads)
        assert_walks_agree(data, origin, undamaged if warm else None)

    def test_every_cut_of_a_mixed_log(self):
        """Torn at every byte — each frame's 1-, 3- and 9-byte header
        slices among them — of a log of mixed record kinds holding every
        width of context id."""
        payloads = [
            encode_record(replace(MAKERS[i % len(MAKERS)](i), context_id=c))
            for i, c in enumerate((0, -1, 127, 128, 300, 1 << 20, 5))
        ]
        frames = [frame(payload) for payload in payloads]
        data = b"".join(frames)
        starts = list(accumulate(map(len, frames), initial=0))
        for cut in range(len(data) + 1):
            assert_walks_agree(data[:cut])
            assert_walks_agree(data[:cut], warm=data)
            # the warm index's scan raises at the first frame the cut lost
            warm = _manager(data[:cut], 0, data)
            if cut == len(data):
                assert len(list(warm.scan())) == len(frames)
                continue
            lost = max(at for at in starts if at <= cut)
            with pytest.raises(
                LogCorruptionError, match=f"^log 'p1', LSN {lost}: torn frame"
            ):
                list(warm.scan())

    @pytest.mark.parametrize(
        "payload",
        [b"", b"\x01", b"\x01\x01", b"\x01\x00", b"\xee\x01\x05",
         b"\x01\x02\x05", b"\x01\x01\xff", b"\x01\x09\x01\x02"],
        ids=["empty", "kind-only", "id-length-only", "zero-length-id",
             "unknown-kind", "id-overruns", "negative-id", "long-overrun"],
    )
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_odd_payload_anywhere(self, payload, where):
        good = [encode_record(MAKERS[i % len(MAKERS)](i)) for i in range(4)]
        at = {"first": 0, "middle": 2, "last": 4}[where]
        payloads = good[:at] + [payload] + good[at:]
        data = b"".join(frame(p) for p in payloads)
        assert_walks_agree(data)
        assert_walks_agree(data[: len(data) - 1])
        assert_walks_agree(data, origin=4096)

