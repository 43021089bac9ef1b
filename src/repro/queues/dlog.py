"""A minimal durable record log for the queued substrate.

Each resource manager (queue, state store, transaction coordinator)
owns one of these: an append-only stable file of CRC-framed, tagged
records, forced on demand against the machine's rotational disk — the
same storage discipline Phoenix/App's log manager uses, without the
Phoenix record vocabulary.  It shares the log manager's zero-copy
framing helpers: records encode straight into the volatile buffer and
the flush hands the stable store a ``memoryview``.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..errors import LogCorruptionError, PartialWriteError
from ..faults import plane as faultplane
from ..log.serialization import (
    Reader,
    Writer,
    begin_frame,
    end_frame,
    read_repaired_frames,
)
from ..sim.machine import Machine


class DurableLog:
    """Append-only, forceable log of (tag, value) records."""

    def __init__(self, machine: Machine, name: str):
        self.machine = machine
        self.name = name
        file_name = f"{name}.qlog"
        self._stable = machine.stable_store.open(file_name, create=True)
        if not machine.disk.has_file(file_name):
            machine.disk.create_file(file_name)
        self._disk_file = machine.disk.file(file_name)
        self._buffer = bytearray()
        self.forces = 0
        self.appends = 0
        #: The payloads the last crash's repair walk kept, until the
        #: replay that follows it decodes them.
        self._restart_payloads: list[bytes] | None = None

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
        if cut is not None:
            self._stable.arm_partial_write(cut)
        self.machine.disk.write(self._disk_file, nbytes)
        try:
            with memoryview(self._buffer) as view:
                self._stable.append(view)
        except PartialWriteError:
            signal = faultplane.torn_signal(f"qlog.flush:{self.name}")
            if signal is None:
                raise
            raise signal from None
        self._buffer.clear()
        self._restart_payloads = None
        self.forces += 1
        faultplane.site_hit(f"qforce.after:{self.name}")
        return True

    def crash(self) -> None:
        """A crash loses whatever was not forced, and truncates a torn
        tail left by a crash mid-force.

        Without the repair, a later append would land *after* the torn
        bytes and every record behind the tear would be unreadable.
        Resource managers call this on their crash path, right before
        replaying the log, and the replay decodes the frames this walk
        kept.
        """
        self._buffer.clear()
        self._restart_payloads = read_repaired_frames(self._stable)[0]

    def records(self) -> Iterator[tuple[str, object]]:
        """Replay the stable records: the frames the last crash's repair
        walk kept, or else those of a fresh repair walk."""
        payloads, self._restart_payloads = self._restart_payloads, None
        if payloads is None:
            payloads = read_repaired_frames(self._stable)[0]
        for index, payload in enumerate(payloads):
            reader = Reader(payload)
            try:
                tag, value = reader.text(), reader.value()
            except LogCorruptionError:
                # A bad last record ends the replay, as it always has; a
                # bad one with records after it would hide them.
                if index + 1 < len(payloads):
                    raise
                return
            yield tag, value
