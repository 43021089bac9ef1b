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
* **Read path** — the manager maintains an LSN → (frame length,
  record kind, context id) index over the stable log, built lazily for
  pre-existing bytes and kept current on append/flush/truncate/repair.
  ``read_record`` / ``read_records`` read only their own frames (each
  run of adjacent frames with one stable read),
  ``scan(from_lsn)`` reads only the byte suffix from ``from_lsn``,
  ``scan(from_lsn, kinds=...)`` decodes only the frames whose kind was
  asked for, and ``component_chains(from_lsn)`` groups the index by
  context id without reading a frame, instead of re-materializing the
  whole stable file per call.  ``LogStats.reads`` / ``bytes_read`` /
  ``index_hits`` make the saved work observable.

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
    payload_kind,
    record_kind,
)
from .serialization import (
    FramedFile,
    Writer,
    begin_frame,
    end_frame,
    read_frame,
    read_frame_incremental,
    validate_frames,
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
    # index; rebuilds counts the walks that decoded stable bytes the
    # index refused (corruption, or a torn tail not yet repaired) —
    # normally 0.
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
        # parallel columns), covering the physical prefix
        # [0, _indexed_upto).  Buffered records wait in _pending_entries
        # until a flush makes them stable.  Pre-existing stable bytes
        # (a manager opened over an old file) are indexed lazily on the
        # first read; _index_stale_block remembers where lazy indexing
        # hit undecodable bytes so it is not retried on every read.
        self._index_lsns: list[int] = []
        self._index_lengths: list[int] = []
        self._index_kinds = bytearray()
        self._index_contexts: list[int] = []
        self._indexed_upto = 0
        self._pending_entries: list[tuple[int, int, int, int]] = []
        self._index_stale_block: tuple[int, int] | None = None

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
        nbytes = len(self._buffer)
        flush_offset = self._stable.size
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
        # stable.  If older stable bytes are not indexed yet (a manager
        # opened over a pre-existing file), index them first so the
        # index stays a contiguous prefix.
        if self._indexed_upto != flush_offset:
            self._ensure_index(upto=flush_offset)
        if self._indexed_upto == flush_offset:
            for lsn, length, kind, context in self._pending_entries:
                self._index_lsns.append(lsn)
                self._index_lengths.append(length)
                self._index_kinds.append(kind)
                self._index_contexts.append(context)
            self._indexed_upto = flush_offset + nbytes
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

    def _clamp_index(self, size: int) -> None:
        """Drop index entries past the stable file's end (the file may
        have shrunk under us: torn-tail injection in tests, repair)."""
        if self._indexed_upto <= size:
            return
        while self._index_lsns:
            end = (
                self._index_lsns[-1]
                - self._base_lsn
                + self._index_lengths[-1]
            )
            if end <= size:
                break
            self._index_lsns.pop()
            self._index_lengths.pop()
            self._index_kinds.pop()
            self._index_contexts.pop()
        self._indexed_upto = (
            self._index_lsns[-1] - self._base_lsn + self._index_lengths[-1]
            if self._index_lsns
            else 0
        )
        self._index_stale_block = None

    def _ensure_index(self, upto: int | None = None) -> None:
        """Extend the index over stable bytes appended or discovered
        since the last call.  O(1) when nothing changed (the common
        case: append/flush keep the index current without any read)."""
        size = self._stable.size if upto is None else upto
        self._clamp_index(self._stable.size)
        if self._indexed_upto >= size:
            return
        if self._index_stale_block == (self._indexed_upto, size):
            return  # already known undecodable; repair_tail resets this
        start = self._indexed_upto
        suffix = self._read_range(start, size - start)
        starts, stop = validate_frames(suffix)
        lengths = _frame_lengths(starts, stop)
        kinds, contexts, refused = payload_columns(suffix, starts, lengths)
        if refused is not None:
            stop = starts[len(kinds)]
            del starts[len(kinds):], lengths[len(kinds):]
        self._index_lsns += _shifted(starts, self._base_lsn + start)
        self._index_lengths += lengths
        self._index_kinds += kinds
        self._index_contexts += contexts
        self._indexed_upto = start + stop
        # Bytes left unindexed are a torn tail awaiting repair_tail, or
        # interior corruption (an unknown record kind or a malformed
        # context id included) a read will surface.
        self._index_stale_block = (
            None if stop == len(suffix) else (self._indexed_upto, size)
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
        walk = data, starts, stop = self._walk()
        lengths = _frame_lengths(starts, stop)
        kinds, contexts, refused = payload_columns(data, starts, lengths)
        if refused is not None:
            # Checked before the tail: a CRC-valid frame of an unknown
            # kind or with a malformed context id is not a torn write,
            # so it is never truncated away.
            lsn = self._base_lsn + starts[len(kinds)]
            raise self._file.corruption(lsn, refused)
        if self._file.repair(walk, self._index_lsns) is not None:
            self._buffer_start_lsn = self._base_lsn + stop
        self._index_lsns = _shifted(starts, self._base_lsn)
        self._index_lengths = lengths
        self._index_kinds = kinds
        self._index_contexts = contexts
        self._indexed_upto = stop
        self._index_stale_block = None
        return self._base_lsn + stop

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
        self,
        lsn: int,
        data: bytes,
        offset: int,
        selected: bytes | None = None,
    ) -> tuple[LogRecord | None, int]:
        """Decode the frame at ``data[offset:]`` (``offset`` inside
        ``data``), which starts at ``lsn``; return the record and the
        next frame's offset.  With ``selected`` (a truth table over kind
        bytes) a frame of an unselected kind is checked but not decoded
        and comes back as ``None``."""
        try:
            payload, next_offset = read_frame(data, offset)
            if selected is not None and not selected[payload_kind(payload)]:
                return None, next_offset
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

        Reads only the byte suffix from ``from_lsn`` — a tail scan of a
        long log no longer pays for the log's full history.  A filtered
        scan from a record boundary picks its frames from the index's
        kind column and reads only those, through ``read_records`` (one
        stable read per run of neighbours), plus any bytes past the
        indexed prefix: the frames in between are neither read, nor
        CRC-checked again, nor decoded (``repair_tail`` and the lazy
        index build validated them, kind byte included).  A record of a
        skipped kind whose *payload* is malformed therefore surfaces
        from the first reader that selects it, not from this scan.
        """
        self._ensure_index()
        size = self._stable.size
        start = max(from_lsn, self._base_lsn)
        physical = start - self._base_lsn
        if physical >= size:
            if physical == size:
                return
            raise self._file.corruption(
                start, f"torn frame header at offset {physical}"
            )
        first = bisect_left(self._index_lsns, start)
        on_boundary = (
            first < len(self._index_lsns)
            and self._index_lsns[first] == start
        )
        if on_boundary:
            self.stats.index_hits += 1
        selected = None
        chosen: list[int] = []
        if kinds is not None:
            table = bytearray(256)
            for cls in kinds:
                table[record_kind(cls)] = 1
            selected = bytes(table)
            if on_boundary:
                # Only the chosen frames are read, by read_records' run
                # reads; whatever the index could not vouch for (bytes
                # past a frame it refused) is walked below, like any
                # scan.
                chosen = list(
                    compress(
                        self._index_lsns[first:],
                        self._index_kinds[first:].translate(selected),
                    )
                )
                physical = self._indexed_upto
                start = self._base_lsn + physical
        # Read before the first yield: the caller may append, flush or
        # truncate while this generator is suspended.
        suffix = (
            self._read_range(physical, size - physical)
            if physical < size
            else b""
        )
        yield from self.read_records(chosen)
        offset = 0
        while offset < len(suffix):
            lsn = start + offset
            record, offset = self._decode_frame(lsn, suffix, offset, selected)
            if record is not None:
                yield lsn, record

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
        only the records' own frames.  The index is brought up to date
        once for the sequence, and the lookups walk it forward instead of
        searching it afresh.  Each run of requested LSNs that are
        neighbours in the index is one contiguous byte range, fetched
        with one stable read: ``bytes_read`` is the frames' bytes either
        way, and a dense sequence costs a few reads instead of one per
        record."""
        self._ensure_index()
        at = 0
        i = 0
        count = len(lsns)
        while i < count:
            lsn = lsns[i]
            index_lsns = self._index_lsns
            at = bisect_left(index_lsns, lsn, at)
            if at == len(index_lsns) or index_lsns[at] != lsn:
                yield lsn, self._read_unindexed(lsn)
                i += 1
                continue
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
            length = index_lsns[end - 1] - lsn + self._index_lengths[end - 1]
            chunk = self._read_range(lsn - self._base_lsn, length)
            at = end
            offset = 0
            for k in range(first, i):
                frame_lsn = lsns[k]
                record, offset = self._decode_frame(frame_lsn, chunk, offset)
                yield frame_lsn, record

    def _read_unindexed(self, lsn: int) -> LogRecord:
        """A record the index cannot vouch for (below the truncation
        base, past the end, in a corrupt region, or not on a record
        boundary): read incrementally — header, then payload — with the
        same failure modes a full-file read would surface."""
        if lsn < self._base_lsn:
            raise InvariantViolationError(
                f"LSN {lsn} was garbage-collected (base {self._base_lsn})"
            )
        size = self._stable.size
        physical = lsn - self._base_lsn
        if physical > size:
            raise InvariantViolationError(
                f"LSN {lsn} outside the stable log (size {size})"
            )
        try:
            result = read_frame_incremental(self._read_range, physical, size)
            if result is None:
                raise InvariantViolationError(f"no record at LSN {lsn}")
            return decode_record(result[0])
        except LogCorruptionError as exc:
            raise self._file.corruption(lsn, exc) from None

    def component_chains(self, from_lsn: int = 0) -> dict[int, list[int]]:
        """Per-component frame chains over the stable log from
        ``from_lsn``: context_id → the ordered LSNs of that component's
        records.

        A group-by over the index's LSN and context columns: no frame is
        read or decoded, and after a restart the columns are the ones
        ``repair_tail`` rebuilt from the stable bytes.  Stable bytes the
        index refused are walked by ``scan``, so corruption there raises
        instead of shortening a chain.
        """
        self._ensure_index()
        start = max(from_lsn, self._base_lsn)
        first = bisect_left(self._index_lsns, start)
        chains: defaultdict[int, list[int]] = defaultdict(list)
        for context, lsn in zip(
            self._index_contexts[first:], self._index_lsns[first:]
        ):
            chains[context].append(lsn)
        self.stats.comp_index_hits += 1
        if self._indexed_upto < self._stable.size:
            self.stats.comp_index_rebuilds += 1
            refused = self._base_lsn + self._indexed_upto
            for lsn, record in self.scan(max(start, refused)):
                chains[record.context_id].append(lsn)
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
        self._indexed_upto = max(0, self._indexed_upto - nbytes)
        self._index_stale_block = None
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
