"""A minimal durable record log for the queued substrate.

Each resource manager (queue, state store, transaction coordinator)
owns one of these: an append-only stable file of CRC-framed, tagged
records, forced on demand against the machine's rotational disk — the
same storage discipline Phoenix/App's log manager uses, without the
Phoenix record vocabulary, over the process log's ``FramedFile`` and
zero-copy framing: records encode straight into the volatile buffer and
the flush hands the stable store a ``memoryview``.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..errors import PartialWriteError
from ..faults import plane as faultplane
from ..log.serialization import (
    FramedFile,
    Writer,
    begin_frame,
    end_frame,
    read_text,
    read_value,
)
from ..sim.machine import Machine


class DurableLog:
    """Append-only, forceable log of (tag, value) records."""

    def __init__(self, machine: Machine, name: str):
        self.machine = machine
        self.name = name
        self._file = FramedFile(
            machine.stable_store, machine.disk, f"{name}.qlog"
        )
        self._buffer = bytearray()
        self.forces = 0
        self.appends = 0
        #: The records the last crash's repair walk kept, until the
        #: replay that follows it hands them out.
        self._restart_records: list[tuple[str, object]] | None = None

    def append(self, tag: str, value: object) -> None:
        header_at = begin_frame(self._buffer)
        writer = Writer(out=self._buffer)
        writer.text(tag)
        writer.value(value)
        end_frame(self._buffer, header_at)
        self.appends += 1

    def force(self) -> bool:
        """Flush buffered records with one unbuffered disk write."""
        if not self._buffer:
            return False
        nbytes = len(self._buffer)
        faultplane.site_hit(f"qforce.before:{self.name}")
        cut = faultplane.flush_cut(f"qlog.flush:{self.name}", nbytes)
        try:
            with memoryview(self._buffer) as view:
                self._file.append(view, cut)
        except PartialWriteError:
            signal = faultplane.torn_signal(f"qlog.flush:{self.name}")
            if signal is None:
                raise
            raise signal from None
        self._buffer.clear()
        self._restart_records = None
        self.forces += 1
        faultplane.site_hit(f"qforce.after:{self.name}")
        return True

    def crash(self) -> None:
        """A crash loses whatever was not forced, and truncates a torn
        tail left by a crash mid-force.

        Without the repair, a later append would land *after* the torn
        bytes and every record behind the tear would be unreadable.
        Resource managers call this on their crash path, right before
        replaying the log, and the replay hands out the records this walk
        kept.
        """
        self._buffer.clear()
        self._restart_records = self._file.replay(_decode)

    def records(self) -> Iterator[tuple[str, object]]:
        """Replay the stable records: those the last crash's repair walk
        kept, or else those of a fresh repair walk."""
        records, self._restart_records = self._restart_records, None
        yield from self._file.replay(_decode) if records is None else records


def _decode(payload: bytes) -> tuple[str, object]:
    tag, pos = read_text(payload, 0)
    return tag, read_value(payload, pos)[0]
