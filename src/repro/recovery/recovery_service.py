"""The per-machine recovery service (paper Section 2.4, Figure 4).

"All processes that host persistent components register at start time
with the Phoenix/App recovery service running on their machine.  The
recovery service monitors the abnormal exits of the registered processes
and restarts those processes.  It keeps the information of registered
processes in a table and force writes updates to the table to its log to
make the table persistent."

The service assigns the stable logical process IDs that form part of
every method-call ID; because the table is durable, a restarted process
gets the *same* logical PID, keeping regenerated call IDs identical
(condition 2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.process import ProcessState
from ..errors import InvariantViolationError, LogCorruptionError
from ..log.serialization import (
    FramedFile,
    Writer,
    begin_frame,
    end_frame,
    read_signed,
    read_text,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..core.process import AppProcess
    from ..core.runtime import PhoenixRuntime
    from ..sim.machine import Machine


class RecoveryService:
    """One per machine; owns the durable process-registration table."""

    def __init__(self, machine: "Machine", runtime: "PhoenixRuntime"):
        self.machine = machine
        self.runtime = runtime
        self._table: dict[str, int] = {}  # process name -> logical pid
        self._next_pid = 1

        self._file = FramedFile(
            machine.stable_store, machine.disk, "recovery-service.log"
        )
        self._load_table()

    # ------------------------------------------------------------------
    # durable registration table
    # ------------------------------------------------------------------
    def _load_table(self) -> None:
        # A machine crash can tear the force-write of a registration
        # mid-frame; repair before reading, exactly like a process log.
        for name, pid in self._file.replay(_decode_registration):
            self._table[name] = pid
            self._next_pid = max(self._next_pid, pid + 1)

    def _persist_registration(self, name: str, pid: int) -> None:
        buffer = bytearray()
        header_at = begin_frame(buffer)
        writer = Writer(out=buffer)
        writer.text(name)
        writer.signed(pid)
        end_frame(buffer, header_at)
        self._file.append(buffer)

    def register(self, process: "AppProcess") -> int:
        """Assign (or re-assign after a restart) the logical PID."""
        existing = self._table.get(process.name)
        if existing is not None:
            return existing
        pid = self._next_pid
        self._next_pid += 1
        self._table[process.name] = pid
        self._persist_registration(process.name, pid)
        return pid

    def logical_pid_of(self, process_name: str) -> int:
        try:
            return self._table[process_name]
        except KeyError:
            raise InvariantViolationError(
                f"process {process_name!r} never registered on "
                f"{self.machine.name}"
            ) from None

    # ------------------------------------------------------------------
    # monitoring & restart
    # ------------------------------------------------------------------
    def crashed_processes(self) -> list[str]:
        """Processes that exited abnormally and are not yet recovered."""
        return sorted(
            process.name
            for process in self.machine.processes()
            if process.state is not ProcessState.RUNNING
        )

    def restart(self, process: "AppProcess") -> None:
        """Restart a crashed process and drive its recovery manager.

        The recovery service sends back the original process identity
        (the stable logical PID) and directs the recovery manager to
        recover (paper Section 4.4).
        """
        from .recovery_manager import RecoveryManager

        if process.state is not ProcessState.CRASHED:
            return
        # The crash already built the empty incarnation recovery fills.
        process.state = ProcessState.RECOVERING
        process.logical_pid = self.logical_pid_of(process.name)
        try:
            RecoveryManager(process).recover()
        except LogCorruptionError:
            # A log that cannot be read leaves the process crashed: the
            # next call retries recovery and gets the same typed error,
            # never a half-recovered process to execute against.
            process.crash()
            raise
        process.finish_recovery()


def _decode_registration(payload: bytes) -> tuple[str, int]:
    name, pos = read_text(payload, 0)
    return name, read_signed(payload, pos)[0]
