"""Durable state store for stateless workers.

The "read state before processing, write it back after" half of the
TP-monitor model: a transactional key-value store whose writes commit
atomically with the queue operations of the same transaction.
"""

from __future__ import annotations

from ..errors import InvariantViolationError
from ..sim.machine import Machine
from .dlog import DurableLog
from .transaction import Transaction


class DurableStateStore:
    """A transactional, durable key-value store."""

    def __init__(self, machine: Machine, name: str):
        self.machine = machine
        self.name = name
        self.log = DurableLog(machine, name)
        self._data: dict = {}
        self._staged: dict[int, dict] = {}
        self.reads = 0
        self._recover()

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def get(self, key, default=None):
        """Read committed state (disk reads are not on the force path)."""
        self.reads += 1
        return self._data.get(key, default)

    def set(self, txn: Transaction, key, value) -> None:
        staged = self._staged.get(txn.txn_id)
        if staged is None:
            staged = self._staged[txn.txn_id] = {}
            txn.enlist(self)
        staged[key] = value

    def get_in_txn(self, txn: Transaction, key, default=None):
        """Read-your-writes within a transaction."""
        staged = self._staged.get(txn.txn_id, {})
        if key in staged:
            return staged[key]
        return self.get(key, default)

    # ------------------------------------------------------------------
    # participant protocol
    # ------------------------------------------------------------------
    def prepare(self, txn_id: int) -> None:
        staged = self._staged.get(txn_id, {})
        self.log.append("prepare", {"txn": txn_id, "writes": dict(staged)})
        self.log.force()

    def commit(self, txn_id: int, forced: bool) -> None:
        staged = self._staged.pop(txn_id, None)
        if staged is None:
            raise InvariantViolationError(
                f"store {self.name}: commit of unknown txn {txn_id}"
            )
        self.log.append("commit", {"txn": txn_id, "writes": dict(staged)})
        if forced:
            self.log.force()
        self._data.update(staged)

    def abort(self, txn_id: int) -> None:
        self._staged.pop(txn_id, None)

    # ------------------------------------------------------------------
    # crash & recovery
    # ------------------------------------------------------------------
    def crash(self) -> None:
        self.log.crash()
        self._staged.clear()
        self._data.clear()
        self._recover()

    def _recover(self) -> None:
        data: dict = {}
        self._in_doubt: dict[int, dict] = {}
        for tag, value in self.log.records():
            if tag == "prepare":
                self._in_doubt[value["txn"]] = value["writes"]
            elif tag == "commit":
                self._in_doubt.pop(value["txn"], None)
                data.update(value["writes"])
        self._data = data

    def resolve_in_doubt(self, coordinator) -> None:
        """Presumed-abort resolution: ask the coordinator about prepared
        transactions whose (lazy, unforced) commit record was lost."""
        committed = coordinator.committed_txns()
        for txn_id, writes in sorted(self._in_doubt.items()):
            if txn_id in committed:
                self.log.append("commit", {"txn": txn_id, "writes": writes})
                self._data.update(writes)
        self._in_doubt.clear()
        self.log.force()

    @property
    def total_forces(self) -> int:
        return self.log.forces

    def snapshot(self) -> dict:
        return dict(self._data)
