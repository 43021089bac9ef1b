"""Recoverable message queues.

A durable FIFO participating in transactions: enqueues become visible,
and dequeues become permanent, only at commit; an abort or a crash
returns in-flight messages to the queue.  Contents are rebuilt from the
queue's own forced log — the "recoverable stateful message queues"
of the TP-monitor model the paper contrasts itself with.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass

from ..errors import InvariantViolationError
from ..sim.machine import Machine
from .dlog import DurableLog
from .transaction import Transaction


@dataclass(frozen=True)
class QueueRecord:
    """A message as stored in the queue."""

    msg_id: int
    payload: object


class RecoverableQueue:
    """A durable transactional FIFO."""

    def __init__(self, machine: Machine, name: str):
        self.machine = machine
        self.name = name
        self.log = DurableLog(machine, name)
        self._ready: "OrderedDict[int, object]" = OrderedDict()
        self._next_msg_id = 1
        # staged per-transaction work: txn_id -> (enqueues, dequeues)
        self._staged: dict[int, tuple[list[QueueRecord], list[QueueRecord]]] = {}
        self._recover()

    # ------------------------------------------------------------------
    # transactional operations
    # ------------------------------------------------------------------
    def _stage(self, txn: Transaction):
        if txn.txn_id not in self._staged:
            self._staged[txn.txn_id] = ([], [])
            txn.enlist(self)
        return self._staged[txn.txn_id]

    def enqueue(self, txn: Transaction, payload: object) -> int:
        """Stage a message; it becomes visible at commit."""
        enqueues, __ = self._stage(txn)
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        enqueues.append(QueueRecord(msg_id, payload))
        return msg_id

    def dequeue(self, txn: Transaction) -> QueueRecord | None:
        """Remove the head message; permanent at commit, returned to the
        queue on abort.  Staged (uncommitted) enqueues of other
        transactions are invisible."""
        __, dequeues = self._stage(txn)
        if not self._ready:
            return None
        msg_id, payload = self._ready.popitem(last=False)
        record = QueueRecord(msg_id, payload)
        dequeues.append(record)
        return record

    def __len__(self) -> int:
        return len(self._ready)

    def peek_ids(self) -> list[int]:
        return list(self._ready)

    def peek_payloads(self) -> list[object]:
        """The committed, ready payloads in FIFO order (non-destructive;
        crash drivers use this to tell a lost operation from one whose
        commit record survived)."""
        return list(self._ready.values())

    # ------------------------------------------------------------------
    # participant protocol
    # ------------------------------------------------------------------
    def prepare(self, txn_id: int) -> None:
        enqueues, dequeues = self._staged.get(txn_id, ((), ()))
        self.log.append(
            "prepare",
            {
                "txn": txn_id,
                "enq": [(r.msg_id, r.payload) for r in enqueues],
                "deq": [r.msg_id for r in dequeues],
            },
        )
        self.log.force()

    def commit(self, txn_id: int, forced: bool) -> None:
        staged = self._staged.pop(txn_id, None)
        if staged is None:
            raise InvariantViolationError(
                f"queue {self.name}: commit of unknown txn {txn_id}"
            )
        enqueues, dequeues = staged
        self.log.append(
            "commit",
            {
                "txn": txn_id,
                "enq": [(r.msg_id, r.payload) for r in enqueues],
                "deq": [r.msg_id for r in dequeues],
            },
        )
        if forced:
            self.log.force()
        for record in enqueues:
            self._ready[record.msg_id] = record.payload
        # dequeues were already removed from _ready when staged

    def abort(self, txn_id: int) -> None:
        staged = self._staged.pop(txn_id, None)
        if staged is None:
            return
        __, dequeues = staged
        # return in-flight messages to the head, preserving order
        for record in reversed(dequeues):
            self._ready[record.msg_id] = record.payload
            self._ready.move_to_end(record.msg_id, last=False)

    # ------------------------------------------------------------------
    # crash & recovery
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Lose everything volatile: staged work and unforced records."""
        self.log.crash()
        self._staged.clear()
        self._ready.clear()
        self._recover()

    def _recover(self) -> None:
        """Rebuild contents from the log.  Prepared transactions whose
        (lazy) commit record is missing are *in doubt*: presumed-abort
        resolution (:meth:`resolve_in_doubt`) asks the coordinator."""
        ready: "OrderedDict[int, object]" = OrderedDict()
        self._in_doubt: dict[int, dict] = {}
        top_msg_id = 0
        for tag, value in self.log.records():
            if tag == "commit":
                self._in_doubt.pop(value["txn"], None)
                for msg_id, payload in value["enq"]:
                    ready[msg_id] = payload
                    top_msg_id = max(top_msg_id, msg_id)
                for msg_id in value["deq"]:
                    ready.pop(msg_id, None)
            elif tag == "prepare":
                self._in_doubt[value["txn"]] = value
                for msg_id, __ in value["enq"]:
                    top_msg_id = max(top_msg_id, msg_id)
        self._ready = ready
        self._next_msg_id = top_msg_id + 1

    def resolve_in_doubt(self, coordinator) -> None:
        """Apply in-doubt prepares the coordinator actually committed."""
        committed = coordinator.committed_txns()
        for txn_id, value in sorted(self._in_doubt.items()):
            if txn_id not in committed:
                continue  # presumed abort
            self.log.append("commit", value)
            for msg_id, payload in value["enq"]:
                self._ready[msg_id] = payload
            for msg_id in value["deq"]:
                self._ready.pop(msg_id, None)
        self._in_doubt.clear()
        self.log.force()

    @property
    def total_forces(self) -> int:
        return self.log.forces
