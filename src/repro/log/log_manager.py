"""Per-process log manager.

Paper Section 4.1: "Message records and checkpoints are stored in disk
based log files.  We manage disk files on a per-process basis to simplify
file access.  Logging is performed through a log manager in a process."
And Section 5: "Log records accumulate in a buffer and are written at a
log force or full buffer."

The manager keeps an in-memory buffer of framed records.  ``append``
assigns the record its LSN (the byte offset its frame will occupy in the
stable log) without touching the disk; ``force`` writes the whole buffer
as one unbuffered disk write and only then are those records durable.  A
process crash discards the whole manager, buffer included, and the next
incarnation opens a fresh one over the same stable files — that loss,
and recovery's tolerance of it, is the heart of the paper's Algorithm 2
argument.

Both hot paths avoid materializing the log:

* **Write path** — ``append`` encodes the record *directly into* the
  volatile buffer (``Writer(out=...)`` plus in-place framing), and
  ``_flush`` hands the stable store a ``memoryview`` of the buffer, so
  no intermediate ``bytes`` object is built per record or per flush.
* **Read path** — the manager keeps an LSN → (frame length, record
  kind, context id) index over the stable log.  One walk of the stable
  bytes builds it — ``repair_tail`` at a restart, or the first read or
  flush of a manager opened over old bytes — a flush extends it and
  ``truncate_prefix`` trims it.  ``read_record`` / ``read_records`` read
  only their own frames (each run of adjacent frames with one stable
  read), ``scan(from_lsn)`` picks its frames from the index (from the
  kind column, too, when given ``kinds``) and reads them the same way,
  and ``component_chains(from_lsn)`` groups the index by context id
  without reading a frame, instead of re-materializing the whole stable
  file per call.  ``LogStats.reads`` / ``bytes_read`` / ``index_hits``
  make the saved work observable.

The index is the manager's only per-record state, and on restart
``repair_tail`` rebuilds all of it from the stable bytes it validates:
recovery reads nothing a crash would have lost.

The well-known file (Section 4.3) is a tiny per-process stable file that
holds the LSN of the last flushed begin-checkpoint record.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from collections import defaultdict
from collections.abc import Collection, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import compress
from operator import sub

from ..errors import (
    InvariantViolationError,
    LogCorruptionError,
    PartialWriteError,
)
from ..faults import plane as faultplane
from ..sim.disk import RotationalDisk
from ..sim.stable_store import StableFile, StableStore
from .records import (
    LogRecord,
    decode_record,
    encode_record_into,
    payload_columns,
    record_kind,
)
from .serialization import (
    FramedFile,
    Writer,
    begin_frame,
    end_frame,
    frame_error,
    frame_overhead,
    read_frame,
)

_WELL_KNOWN_STRUCT = struct.Struct("<q")


def _frame_lengths(starts: list[int], stop: int) -> list[int]:
    """Frame lengths from a walk's frame offsets and its stop offset."""
    ends = starts[1:]
    ends.append(stop)
    return list(map(sub, ends, starts))


def _shifted(offsets: list[int], by: int) -> list[int]:
    """``offsets`` moved by ``by`` (the list itself when ``by`` is 0)."""
    return list(map(by.__add__, offsets)) if by else offsets


@dataclass
class LogStats:
    """Counters used throughout the evaluation (e.g. Table 8 reports the
    number of log forces)."""

    appends: int = 0
    forces_requested: int = 0
    forces_performed: int = 0  # forces that actually wrote to disk
    buffer_flushes: int = 0
    bytes_appended: int = 0
    bytes_written: int = 0
    well_known_writes: int = 0
    truncations: int = 0
    bytes_reclaimed: int = 0
    # read-path accounting (the write-path counters above reproduce the
    # paper's numbers; these prove the Python-level read work is bounded)
    reads: int = 0  # stable-store read operations
    bytes_read: int = 0  # bytes fetched from the stable store
    index_hits: int = 0  # reads/scans resolved via the LSN index
    coalesced_forces: int = 0  # force requests satisfied by a same-instant write
    # group commit (concurrent scheduler extension): batches is the
    # number of shared stable writes; riders counts force requests that
    # rode one instead of issuing their own.
    group_commit_batches: int = 0
    group_commit_riders: int = 0
    # pipelined causal commit (config.pipelined_commit): gated counts
    # force requests satisfied without any write or window wait because
    # the requester's causal prefix was already stable; write_skips
    # counts closed batches whose shared write was elided because every
    # remaining waiter's causal prefix was covered by an earlier
    # in-flight write.
    pipelined_gated: int = 0
    pipelined_write_skips: int = 0
    # per-component chains (component_chains, a group-by over the
    # index's context column): hits counts group-bys served from the
    # index.  rebuilds is always 0: a frame the index refused raises
    # instead of being walked; the field stays while perf/ reports it.
    comp_index_rebuilds: int = 0
    comp_index_hits: int = 0

    def snapshot(self) -> "LogStats":
        return LogStats(**vars(self))


class LogManager:
    """Buffered, forceable, per-process log."""

    def __init__(
        self,
        process_name: str,
        disk: RotationalDisk,
        stable_store: StableStore,
        buffer_capacity: int = 64 * 1024,
        stats: LogStats | None = None,
    ):
        self.process_name = process_name
        self.disk = disk
        self.stable_store = stable_store
        self.buffer_capacity = buffer_capacity
        self.stats = LogStats() if stats is None else stats

        self._file = FramedFile(
            stable_store, disk, f"{process_name}.log", log=process_name
        )
        self._stable = self._file.stable

        well_known_name = f"{process_name}.wellknown"
        self._well_known = stable_store.open(well_known_name, create=True)
        if not disk.has_file(well_known_name):
            disk.create_file(well_known_name)
        self._well_known_disk_file = disk.file(well_known_name)

        self._buffer = bytearray()
        # Logical LSNs survive prefix truncation: physical offset =
        # LSN - base_lsn, and the base is the stable file's origin.
        self._base_lsn = self._stable.origin
        self._buffer_start_lsn = self._base_lsn + self._stable.size

        # LSN index over the *stable* log: sorted frame-start LSNs,
        # their frame lengths, record kinds and context ids (four
        # parallel columns; see _build).  Buffered records wait in
        # _pending_entries until a flush makes them stable.  A manager
        # opened over old stable bytes starts with the empty index,
        # unbuilt: its first read or flush (or repair_tail) walks them.
        self._pending_entries: list[tuple[int, int, int, int]] = []
        self._index_lsns: list[int] = []
        self._index_lengths: list[int] = []
        self._index_kinds = bytearray()
        self._index_contexts: list[int] = []
        # The first frame the build refused, as (LSN, cause): every read
        # that reaches it raises a fresh error from it (_refused).
        self._refusal: tuple[int, str] | None = None
        self._built = not self._stable.size

    # ------------------------------------------------------------------
    # appending and forcing
    # ------------------------------------------------------------------
    @property
    def end_lsn(self) -> int:
        """The LSN the next appended record will receive."""
        return self._buffer_start_lsn + len(self._buffer)

    @property
    def stable_lsn(self) -> int:
        """Everything below this LSN is durable."""
        return self._buffer_start_lsn

    @property
    def base_lsn(self) -> int:
        """The oldest LSN still on the log (grows with truncation)."""
        return self._base_lsn

    def append(self, record: LogRecord) -> int:
        """Buffer a record; return its LSN.  Does not touch the disk.

        The record is encoded straight into the volatile buffer: the
        frame header is reserved, the payload streams in behind it, and
        the header is backfilled — no per-record ``bytes`` objects.
        """
        buf = self._buffer
        lsn = self.end_lsn
        header_at = begin_frame(buf)
        try:
            encode_record_into(Writer(out=buf), record)
        except BaseException:
            # Leave the buffer exactly as it was (a half-encoded record
            # must never reach the disk).
            del buf[header_at:]
            raise
        framed_len = end_frame(buf, header_at)
        self.stats.appends += 1
        self.stats.bytes_appended += framed_len
        self._pending_entries.append(
            (lsn, framed_len, record_kind(type(record)), record.context_id)
        )
        if len(buf) >= self.buffer_capacity:
            self._flush(count_as_force=False)
        return lsn

    def force(self) -> bool:
        """Make every appended record durable.

        Returns True if a disk write actually happened (an empty buffer
        means everything is already stable and the force is free — this
        is exactly why Algorithm 2's "force all previous messages" can be
        cheap when several components share a recently forced log).
        """
        self.stats.forces_requested += 1
        if not self._buffer:
            return False
        name = self.process_name
        faultplane.site_hit(f"log.force.before:{name}", name)
        self._flush(count_as_force=True)
        faultplane.site_hit(f"log.force.after:{name}", name)
        return True

    def _flush(self, count_as_force: bool) -> None:
        # The index stays a contiguous prefix: older stable bytes (a
        # manager opened over a pre-existing file) are indexed before
        # this write lands behind them.
        self._build_once()
        nbytes = len(self._buffer)
        site = f"log.flush:{self.process_name}"
        cut = faultplane.flush_cut(site, nbytes, self.process_name)
        try:
            with memoryview(self._buffer) as view:
                self._file.append(view, cut)
        except PartialWriteError:
            # The crash landed inside this write: a torn frame (or a bare
            # slice of a frame header) is now the stable tail.  Nothing is
            # promoted into the LSN index — the index must never point
            # past what repair_tail will keep — and the process dies here.
            signal = faultplane.torn_signal(site, self.process_name)
            if signal is None:
                raise
            raise signal from None
        # Promote the buffered records' index entries now that they are
        # stable — unless the index stops at a frame its build refused,
        # which these frames lie behind.
        if self._refusal is None:
            for lsn, length, kind, context in self._pending_entries:
                self._index_lsns.append(lsn)
                self._index_lengths.append(length)
                self._index_kinds.append(kind)
                self._index_contexts.append(context)
        self._pending_entries.clear()
        self._buffer.clear()
        self._buffer_start_lsn = self._base_lsn + self._stable.size
        self.stats.bytes_written += nbytes
        if count_as_force:
            self.stats.forces_performed += 1
        else:
            self.stats.buffer_flushes += 1

    def append_and_force(self, record: LogRecord) -> int:
        """Convenience for the baseline algorithm: log then force."""
        lsn = self.append(record)
        self.force()
        return lsn

    # ------------------------------------------------------------------
    # stable content
    # ------------------------------------------------------------------
    def stable_bytes(self) -> bytes:
        """The durable log content, verbatim.

        Determinism fingerprint for the concurrent scheduler tests: two
        runs with the same seed must produce byte-identical stable logs.
        """
        return self._stable.read()

    # ------------------------------------------------------------------
    # the LSN index
    # ------------------------------------------------------------------
    def _read_range(self, offset: int, length: int) -> bytes:
        chunk = self._stable.read_range(offset, length)
        self.stats.reads += 1
        self.stats.bytes_read += length
        return chunk

    def _build(
        self, walk: tuple[bytes, list[int], int], repair: bool
    ) -> int:
        """Fill the four index columns from ``walk`` (``FramedFile.walk``
        of the stable log); return the LSN where they stop.

        The columns cover the whole frames from the base up to the first
        frame the walk refused — bad magic, bounds or CRC, or, read in
        bulk by ``payload_columns``, an unknown record kind or a malformed
        context id — and that refusal is kept, so that every read
        reaching it raises its positioned error (``_refused``).  With
        ``repair`` (``repair_tail``) the torn-tail rule cuts a torn tail
        off, and any other refusal raises here instead.
        """
        data, starts, stop = walk
        lengths = _frame_lengths(starts, stop)
        kinds, contexts, refused = payload_columns(data, starts, lengths)
        if refused is not None:
            stop = starts[len(kinds)]
            del starts[len(kinds):], lengths[len(kinds):]
        elif repair:
            if self._file.repair(walk, self._index_lsns) is not None:
                self._buffer_start_lsn = self._base_lsn + stop
        elif stop < len(data):
            refused = frame_error(data, stop)
        refusal = None
        if refused is not None:
            refusal = (self._base_lsn + stop, str(refused))
            if repair:
                # Checked before the tail: a CRC-valid frame of an
                # unknown kind or with a malformed context id is not a
                # torn write, so it is never truncated away.
                raise self._file.corruption(*refusal)
        self._index_lsns = _shifted(starts, self._base_lsn)
        self._index_lengths = lengths
        self._index_kinds = kinds
        self._index_contexts = contexts
        self._refusal = refusal
        self._built = True
        return self._base_lsn + stop

    def _build_once(self) -> None:
        """Build the index of a manager opened over old stable bytes, at
        its first read or flush; a no-op once it is built."""
        if not self._built:
            self._build(self._walk(), repair=False)

    def _refused(self) -> LogCorruptionError:
        """The positioned error of the frame the build refused, made
        afresh for each raise: one shared object would carry the context
        of whichever handler raised it first into every later raise."""
        lsn, cause = self._refusal
        return self._file.corruption(lsn, cause)

    def _miss(self, lsn: int) -> Exception:
        """Why ``lsn``, which the index does not hold, has no record."""
        if lsn < self._base_lsn:
            return InvariantViolationError(
                f"log {self.process_name!r}: LSN {lsn} was "
                f"garbage-collected (base {self._base_lsn})"
            )
        if lsn >= self.stable_lsn:
            return InvariantViolationError(
                f"log {self.process_name!r}: no record at LSN {lsn}"
            )
        if self._refusal is not None and lsn >= self._refusal[0]:
            return self._refused()
        return self._file.corruption(lsn, "not a record boundary")

    def _past_end(self, at: int, size: int) -> LogCorruptionError:
        """A read from index entry ``at`` on runs past the stable file's
        end at ``size`` (a file cut under the index): the torn frame is
        the first one past the end, where the restart walk stops."""
        base = self._base_lsn
        lengths = self._index_lengths
        lsns = self._index_lsns
        while lsns[at] - base + lengths[at] <= size:
            at += 1
        physical = lsns[at] - base
        part = "header" if physical + frame_overhead() > size else "payload"
        return self._file.corruption(
            lsns[at], f"torn frame {part} at offset {physical}"
        )

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def repair_tail(self) -> int:
        """Truncate a torn tail left by a crash mid-write.

        Walks frames from the beginning (``FramedFile.walk``: magic,
        bounds and CRC, nothing decoded), and ``FramedFile.repair``
        truncates a torn tail; interior corruption (a bad frame followed
        by good data) raises, naming the log and the LSN.  The walk
        revalidates every surviving frame, so the LSN index — kind and
        context columns included, read in bulk by ``payload_columns``,
        which is how it comes back after a restart — is rebuilt from it
        as a side effect; its boundaries bound the repair's search for
        a frame after a bad one.  Returns the repaired stable end LSN.
        """
        return self._build(self._walk(), repair=True)

    def _walk(self) -> tuple[bytes, list[int], int]:
        """The framed file's restart walk, counted as one stable read."""
        walk = self._file.walk()
        self.stats.reads += 1
        self.stats.bytes_read += len(walk[0])
        return walk

    def torn_tail_lsn(self) -> int | None:
        """Where ``repair_tail``'s torn-tail rule would cut the stable
        log, or ``None`` when its tail is not torn.  Repairs nothing;
        interior damage raises, as it does from ``repair_tail``."""
        torn = self._file.torn_tail(self._walk(), self._index_lsns)
        return None if torn is None else self._base_lsn + torn

    def _decode_frame(
        self, lsn: int, data: bytes, offset: int
    ) -> tuple[LogRecord, int]:
        """Decode the frame at ``data[offset:]`` (``offset`` inside
        ``data``), which starts at ``lsn``; return the record and the
        next frame's offset."""
        try:
            payload, next_offset = read_frame(data, offset)
            return decode_record(payload), next_offset
        except LogCorruptionError as exc:
            raise self._file.corruption(lsn, exc) from None

    def scan(
        self,
        from_lsn: int = 0,
        kinds: Collection[type[LogRecord]] | None = None,
    ) -> Iterator[tuple[int, LogRecord]]:
        """Yield ``(lsn, record)`` for every stable record from
        ``from_lsn`` (clamped to the truncation base) to the end of the
        stable log — or, with ``kinds``, only for the records of those
        classes.

        Picks its frames from the index and reads them in runs of
        neighbours, one stable read per run: the whole indexed suffix is
        one run, and given ``kinds`` the kind column picks the frames
        ``read_records`` reads.  A tail scan of a long log does not
        pay for the log's full history, and the frames a filter skips
        are neither read, nor CRC-checked again, nor decoded (the walk
        that built the index validated them, kind byte included).  A
        record of a skipped kind whose *payload* is malformed therefore
        surfaces from the first reader that selects it, not from this
        scan; a frame the index build refused raises once the scan has
        yielded every record before it.
        """
        self._build_once()
        start = max(from_lsn, self._base_lsn)
        first = bisect_left(self._index_lsns, start)
        if first < len(self._index_lsns) and self._index_lsns[first] == start:
            self.stats.index_hits += 1
        elif start == self.stable_lsn:
            return
        else:
            raise self._miss(start)
        refusal = None if self._refusal is None else self._refused()
        if kinds is None:
            # The indexed suffix is one run, decoded frame by frame.
            chunk = self._read_run(first, len(self._index_lsns))
            offset = 0
            while offset < len(chunk):
                lsn = start + offset
                record, offset = self._decode_frame(lsn, chunk, offset)
                yield lsn, record
        else:
            table = bytearray(256)
            for cls in kinds:
                table[record_kind(cls)] = 1
            yield from self.read_records(
                list(
                    compress(
                        self._index_lsns[first:],
                        self._index_kinds[first:].translate(table),
                    )
                )
            )
        if refusal is not None:
            raise refusal

    def read_record(self, lsn: int) -> LogRecord:
        """Read the single record whose frame starts at ``lsn``.

        O(1) via the LSN index: only the record's own frame is fetched
        from the stable store, never the whole log."""
        return next(self.read_records((lsn,)))[1]

    def read_records(
        self, lsns: Sequence[int]
    ) -> Iterator[tuple[int, LogRecord]]:
        """``(lsn, record)`` for each of an ascending sequence of record
        LSNs — a component's chain, or several chains merged — reading
        only the records' own frames.  The lookups walk the index
        forward instead of searching it afresh, and an LSN it does not
        hold raises why (``_miss``).  Each run of requested LSNs that are
        neighbours in the index is one contiguous byte range, fetched
        with one stable read: ``bytes_read`` is the frames' bytes either
        way, and a dense sequence costs a few reads instead of one per
        record."""
        self._build_once()
        at = 0
        i = 0
        count = len(lsns)
        while i < count:
            lsn = lsns[i]
            index_lsns = self._index_lsns
            at = bisect_left(index_lsns, lsn, at)
            if at == len(index_lsns) or index_lsns[at] != lsn:
                raise self._miss(lsn)
            # Extend the run while the next LSN asked for is the next
            # frame in the index.
            first, end = i, at + 1
            i += 1
            while (
                i < count
                and end < len(index_lsns)
                and index_lsns[end] == lsns[i]
            ):
                i += 1
                end += 1
            self.stats.index_hits += i - first
            chunk = self._read_run(at, end)
            at = end
            offset = 0
            for k in range(first, i):
                frame_lsn = lsns[k]
                record, offset = self._decode_frame(frame_lsn, chunk, offset)
                yield frame_lsn, record

    def _read_run(self, at: int, end: int) -> bytes:
        """The bytes of index entries ``at`` to ``end``, which are
        neighbours in the stable log, with one stable read — checked
        once against the file's size: a file cut under the index raises
        the torn error of the first frame past its end."""
        lsn = self._index_lsns[at]
        physical = lsn - self._base_lsn
        length = self._index_lsns[end - 1] - lsn + self._index_lengths[end - 1]
        size = self._stable.size
        if physical + length > size:
            raise self._past_end(at, size)
        return self._read_range(physical, length)

    def component_chains(self, from_lsn: int = 0) -> dict[int, list[int]]:
        """Per-component frame chains over the stable log from
        ``from_lsn``: context_id → the ordered LSNs of that component's
        records.

        A group-by over the index's LSN and context columns: no frame is
        read or decoded, and after a restart the columns are the ones
        ``repair_tail`` rebuilt from the stable bytes.  A frame the index
        build refused raises its error, so corruption never shortens a
        chain.
        """
        self._build_once()
        start = max(from_lsn, self._base_lsn)
        if self._refusal is not None and start < self.stable_lsn:
            raise self._refused()
        first = bisect_left(self._index_lsns, start)
        chains: defaultdict[int, list[int]] = defaultdict(list)
        for context, lsn in zip(
            self._index_contexts[first:], self._index_lsns[first:]
        ):
            chains[context].append(lsn)
        self.stats.comp_index_hits += 1
        return dict(chains)

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def truncate_prefix(self, keep_from_lsn: int) -> int:
        """Reclaim all records below ``keep_from_lsn``.

        The caller (the process's checkpoint machinery) must guarantee
        that ``keep_from_lsn`` is a record boundary and that nothing
        below it will ever be read again — i.e. it is at or below every
        recovery-start LSN and every referenced reply LSN.  Returns the
        number of bytes reclaimed.
        """
        if keep_from_lsn <= self._base_lsn:
            return 0
        if keep_from_lsn > self.stable_lsn:
            raise InvariantViolationError(
                f"cannot truncate into the volatile buffer "
                f"(keep_from={keep_from_lsn}, stable={self.stable_lsn})"
            )
        nbytes = keep_from_lsn - self._base_lsn
        self._stable.trim_front(nbytes)
        cut = bisect_left(self._index_lsns, keep_from_lsn)
        del self._index_lsns[:cut]
        del self._index_lengths[:cut]
        del self._index_kinds[:cut]
        del self._index_contexts[:cut]
        self._base_lsn = keep_from_lsn
        self.stats.truncations += 1
        self.stats.bytes_reclaimed += nbytes
        return nbytes

    # ------------------------------------------------------------------
    # well-known file (Section 4.3)
    # ------------------------------------------------------------------
    def write_well_known_lsn(self, lsn: int) -> None:
        """Force the begin-checkpoint LSN into the well-known file."""
        self.disk.write(self._well_known_disk_file, _WELL_KNOWN_STRUCT.size)
        self._well_known.overwrite(_WELL_KNOWN_STRUCT.pack(lsn))
        self.stats.well_known_writes += 1

    def read_well_known_lsn(self) -> int | None:
        """The LSN of the last flushed begin-checkpoint record, if any."""
        data = self._well_known.read()
        if len(data) != _WELL_KNOWN_STRUCT.size:
            return None
        (lsn,) = _WELL_KNOWN_STRUCT.unpack(data)
        return lsn if lsn >= 0 else None

    def __repr__(self) -> str:
        return (
            f"LogManager({self.process_name}, stable={self.stable_lsn}B, "
            f"buffered={len(self._buffer)}B, "
            f"forces={self.stats.forces_performed})"
        )
