"""Durable byte storage that survives simulated process crashes.

The timing of writes is modelled by :class:`repro.sim.disk.RotationalDisk`;
*content* durability is modelled here.  A :class:`StableStore` belongs to a
machine and holds named byte files.  Simulated crashes wipe process memory
(including any log-manager buffer) but never touch the stable store —
matching the paper's failure model, where processes are killed but the
operating system and disks keep running.

The store also supports an injectable *torn tail*: tests can chop bytes
off the end of a file to emulate a write that was in flight at the moment
of a crash, which exercises the log's CRC framing.
"""

from __future__ import annotations

from ..errors import InvariantViolationError, PartialWriteError


class StableFile:
    """An append-mostly durable byte file."""

    def __init__(self, name: str):
        self.name = name
        self._data = bytearray()
        #: Bytes :meth:`trim_front` discarded: the logical offset of the
        #: first byte held.  Durable, so a reopened log keeps its LSNs.
        self.origin = 0
        self._partial_cut: int | None = None

    def __len__(self) -> int:
        return len(self._data)

    @property
    def size(self) -> int:
        return len(self._data)

    def arm_partial_write(self, cut: int) -> None:
        """Make the *next* :meth:`append` persist only ``cut`` bytes and
        raise :class:`~repro.errors.PartialWriteError` (one-shot)."""
        if cut < 0:
            raise InvariantViolationError(
                f"negative partial-write cut {cut} on file {self.name!r}"
            )
        self._partial_cut = cut

    def append(self, data) -> int:
        """Append ``data`` (``bytes``, ``bytearray`` or ``memoryview``);
        return the offset it was written at."""
        offset = len(self._data)
        if self._partial_cut is not None:
            cut = min(self._partial_cut, len(data))
            self._partial_cut = None
            self._data.extend(bytes(data)[:cut])
            raise PartialWriteError(self.name, cut, len(data))
        self._data.extend(data)
        return offset

    def read(self, offset: int = 0, length: int | None = None) -> bytes:
        """Read ``length`` bytes from ``offset`` (to EOF if ``None``)."""
        if offset < 0 or offset > len(self._data):
            raise InvariantViolationError(
                f"read offset {offset} outside file {self.name!r} "
                f"of size {len(self._data)}"
            )
        end = len(self._data) if length is None else offset + length
        return self._copy(offset, end)

    def read_range(self, offset: int, length: int) -> bytes:
        """Read exactly ``length`` bytes starting at ``offset``.

        The incremental read API: unlike :meth:`read`, a range that runs
        past the end of the file is an error rather than a silent short
        read, so callers (the log manager's frame index) notice stale
        offsets instead of decoding garbage.
        """
        if length < 0:
            raise InvariantViolationError(
                f"negative read length {length} on file {self.name!r}"
            )
        end = offset + length
        if offset < 0 or end > len(self._data):
            raise InvariantViolationError(
                f"read range [{offset}, {end}) outside file {self.name!r} "
                f"of size {len(self._data)}"
            )
        return self._copy(offset, end)

    def _copy(self, start: int, end: int) -> bytes:
        """``bytes`` of ``[start, end)``, copied once: slicing the
        ``bytearray`` itself would copy it twice."""
        with memoryview(self._data)[start:end] as view:
            return bytes(view)

    def overwrite(self, data: bytes) -> None:
        """Atomically replace the whole file (used by well-known files)."""
        self._data = bytearray(data)

    def truncate(self, size: int) -> None:
        """Discard everything past ``size`` (torn-tail injection and
        recovery's removal of a corrupt tail)."""
        if size < 0 or size > len(self._data):
            raise InvariantViolationError(
                f"truncate to {size} outside file {self.name!r} "
                f"of size {len(self._data)}"
            )
        del self._data[size:]

    def trim_front(self, nbytes: int) -> None:
        """Discard the first ``nbytes`` (log garbage collection)."""
        if nbytes < 0 or nbytes > len(self._data):
            raise InvariantViolationError(
                f"trim of {nbytes} outside file {self.name!r} "
                f"of size {len(self._data)}"
            )
        del self._data[:nbytes]
        self.origin += nbytes


class StableStore:
    """Named durable files for one machine."""

    def __init__(self, machine_name: str):
        self.machine_name = machine_name
        self._files: dict[str, StableFile] = {}

    def create(self, name: str) -> StableFile:
        if name in self._files:
            raise InvariantViolationError(
                f"stable file {name!r} already exists on {self.machine_name}"
            )
        file = StableFile(name)
        self._files[name] = file
        return file

    def open(self, name: str, create: bool = False) -> StableFile:
        """Return the file, optionally creating it if missing."""
        if name not in self._files:
            if not create:
                raise KeyError(
                    f"no stable file {name!r} on {self.machine_name}"
                )
            return self.create(name)
        return self._files[name]

    def exists(self, name: str) -> bool:
        return name in self._files

    def delete(self, name: str) -> None:
        self._files.pop(name, None)

    def names(self) -> list[str]:
        return sorted(self._files)
