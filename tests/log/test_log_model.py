"""A stateful model of one log: every index writer against a reference.

One ``LogManager`` with a small buffer (so appends flush on their own)
runs random sequences of appends, forces, reopens, torn writes, prefix
truncations and reads, from a log holding one forced batch.  The model
is the list of records the log holds (each with its LSN, frame length,
kind and context id), the stable end, the truncation base, whether the
index is built yet, and the LSN of a torn frame a first read refused.  After every step the manager's LSNs
equal the model's, and once built its four index columns are exactly
the model's projection of its stable records below the refusal — so a
flush that does not promote, a truncation that does not trim or a
promotion the build then overwrites fails the machine.

A reopen is a restart: a fresh manager over the same stable files,
then ``repair_tail``, a first read, or nothing (the next read or flush
builds the index).  Tearing the next write keeps a prefix of the
buffer on the stable file, then reopens; a first read over the torn
tail refuses it, and every read that reaches the refusal raises it
until a reopen repairs the tail.  A torn log is not written to before
that repair, as in the runtime, where restart repairs first.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import compress

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import LogCorruptionError, PartialWriteError
from repro.log import LogManager, encode_record, frame, record_kind
from repro.sim import Cluster
from tests.log.strategies import RECORDS, records

CAPACITY = 256
REOPENS = ("repair", "first read", "unbuilt")


@dataclass(frozen=True)
class Entry:
    lsn: int
    length: int
    record: object

    @property
    def end(self) -> int:
        return self.lsn + self.length


class LogModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.machine = Cluster().machine("alpha")
        self.log = self._open()
        self.entries: list[Entry] = []  # from the base, buffered included
        self.base = 0
        self.stable = 0
        self.end = 0
        self.built = True
        self.refused: int | None = None

    def _open(self) -> LogManager:
        return LogManager(
            "p1", self.machine.disk, self.machine.stable_store, CAPACITY
        )

    def _readable(self) -> list[Entry]:
        """The stable records the index holds: below the refusal."""
        limit = self.stable if self.refused is None else self.refused
        return [e for e in self.entries if e.lsn < limit]

    def _reopen(self, how: str, file_end: int) -> None:
        """A restart over a stable file ending at ``file_end``: the
        buffer is gone, and only whole frames survive a torn write."""
        self.log = self._open()
        self.entries = [e for e in self.entries if e.end <= file_end]
        frames_end = self.entries[-1].end if self.entries else self.base
        torn = frames_end < file_end
        self.refused = None
        if how == "repair":
            assert self.log.repair_tail() == frames_end
            file_end = frames_end
        elif torn:
            self.refused = frames_end
        self.stable = self.end = file_end
        self.built = how == "repair" or file_end == self.base
        if how == "first read":
            assert list(self.log.read_records(())) == []
            self.built = True

    # ------------------------------------------------------------------
    # writes (never to a torn log: a restart repairs it first)
    # ------------------------------------------------------------------
    def _writable(self) -> bool:
        return self.refused is None

    @initialize(batch=st.lists(records, max_size=6))
    def forced_batch(self, batch: list) -> None:
        """Start from a stable log, so reopens have bytes to index."""
        self.append(batch, force=True)

    @precondition(_writable)
    @rule(
        batch=st.lists(records, min_size=1, max_size=4),
        force=st.booleans(),
    )
    def append(self, batch: list, force: bool) -> None:
        """Append a few records, then force them or not; a record that
        fills the buffer flushes it either way."""
        for record in batch:
            assert self.log.append(record) == self.end
            length = len(frame(encode_record(record)))
            self.entries.append(Entry(self.end, length, record))
            self.end += length
            if self.end - self.stable >= CAPACITY:  # a full buffer flushes
                self.stable = self.end
                self.built = True
        if force:
            self.force()

    @precondition(_writable)
    @rule()
    def force(self) -> None:
        assert self.log.force() == (self.end > self.stable)
        if self.end > self.stable:
            self.stable = self.end
            self.built = True

    @rule(how=st.sampled_from(REOPENS))
    def reopen(self, how: str) -> None:
        self._reopen(how, self.stable)

    @precondition(lambda self: self._writable() and self.end > self.stable)
    @rule(data=st.data(), how=st.sampled_from(REOPENS))
    def tear_the_next_write(self, data, how: str) -> None:
        cut = data.draw(st.integers(0, self.end - self.stable - 1))
        self.machine.stable_store.open("p1.log").arm_partial_write(cut)
        with pytest.raises(PartialWriteError):
            self.log.force()
        self._reopen(how, self.stable + cut)

    @precondition(lambda self: self._writable() and self.stable > self.base)
    @rule(data=st.data())
    def truncate_prefix(self, data) -> None:
        keeps = [e.lsn for e in self.entries if e.lsn < self.stable]
        keep = data.draw(st.sampled_from(keeps[1:] + [self.stable]))
        assert self.log.truncate_prefix(keep) == keep - self.base
        self.entries = [e for e in self.entries if e.lsn >= keep]
        self.base = keep

    # ------------------------------------------------------------------
    # reads (each builds the index of an unbuilt manager)
    # ------------------------------------------------------------------
    @rule(data=st.data())
    def read_records(self, data) -> None:
        readable = self._readable()
        picks = data.draw(
            st.lists(
                st.booleans(), min_size=len(readable), max_size=len(readable)
            )
        )
        chosen = list(compress(readable, picks))
        lsns = [e.lsn for e in chosen]
        past = self.refused is not None and data.draw(st.booleans())
        got = []
        if past:
            # an LSN at or past the refused frame raises the refusal
            with pytest.raises(LogCorruptionError) as raised:
                for item in self.log.read_records(lsns + [self.refused]):
                    got.append(item)
            assert raised.value.lsn == self.refused
        else:
            got = list(self.log.read_records(lsns))
        assert got == [(e.lsn, e.record) for e in chosen]
        self.built = True

    @rule(data=st.data(), kinds=st.sets(st.sampled_from(list(RECORDS))))
    def scan(self, data, kinds) -> None:
        readable = self._readable()
        start = data.draw(
            st.sampled_from([e.lsn for e in readable] + [self.stable])
        )
        expected = [
            (e.lsn, e.record)
            for e in readable
            if e.lsn >= start and type(e.record) in kinds
        ]
        got = []
        if self.refused is not None and start < self.stable:
            with pytest.raises(LogCorruptionError) as raised:
                for item in self.log.scan(start, kinds=kinds):
                    got.append(item)
            assert raised.value.lsn == self.refused
        else:
            got = list(self.log.scan(start, kinds=kinds))
        assert got == expected
        self.built = True

    @rule(data=st.data())
    def component_chains(self, data) -> None:
        readable = self._readable()
        start = data.draw(
            st.sampled_from([self.base] + [e.lsn for e in readable])
        )
        if self.refused is not None and start < self.stable:
            with pytest.raises(LogCorruptionError) as raised:
                self.log.component_chains(start)
            assert raised.value.lsn == self.refused
        else:
            chains: defaultdict[int, list[int]] = defaultdict(list)
            for e in readable:
                if e.lsn >= start:
                    chains[e.record.context_id].append(e.lsn)
            assert self.log.component_chains(start) == chains
        self.built = True

    # ------------------------------------------------------------------
    # the invariants
    # ------------------------------------------------------------------
    @invariant()
    def lsns_match(self) -> None:
        log = self.log
        assert (log.base_lsn, log.stable_lsn, log.end_lsn) == (
            self.base,
            self.stable,
            self.end,
        )

    @invariant()
    def columns_are_the_projection(self) -> None:
        log = self.log
        assert log._built == self.built
        indexed = self._readable() if self.built else []
        assert log._index_lsns == [e.lsn for e in indexed]
        assert log._index_lengths == [e.length for e in indexed]
        assert bytes(log._index_kinds) == bytes(
            record_kind(type(e.record)) for e in indexed
        )
        assert log._index_contexts == [e.record.context_id for e in indexed]
        refusal = log._refusal
        assert (None if refusal is None else refusal[0]) == (
            self.refused if self.built else None
        )


LogModel.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=25,
    deadline=None,
    derandomize=True,
)
TestLogModel = LogModel.TestCase
