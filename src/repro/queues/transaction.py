"""Transactions over queue/state resource managers.

The queued-stateless model's correctness rests on atomically committing
"dequeue request + update state + enqueue reply" (Bernstein, Hsu & Mann,
*Implementing Recoverable Requests Using Queues*, SIGMOD 1990).  When
the participating resource managers are distinct (distributed queues),
that atomicity needs a distributed commit — the expense the Phoenix/App
paper calls out in its introduction.

The coordinator implements standard presumed-abort two-phase commit:

* one **prepare** force per participant,
* one **commit** force at the coordinator (the commit point),
* lazy, unforced commit records at the participants.

A single-participant transaction short-circuits to one-phase commit
(one force at the participant, none at the coordinator).
"""

from __future__ import annotations

import enum
from typing import Protocol

from ..errors import InvariantViolationError
from ..sim.machine import Machine
from .dlog import DurableLog


class TransactionParticipant(Protocol):
    """What a resource manager must implement to join a transaction."""

    def prepare(self, txn_id: int) -> None: ...

    def commit(self, txn_id: int, forced: bool) -> None: ...

    def abort(self, txn_id: int) -> None: ...


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One unit of atomic work across resource managers."""

    def __init__(self, coordinator: "TransactionCoordinator", txn_id: int):
        self.coordinator = coordinator
        self.txn_id = txn_id
        self.state = TxnState.ACTIVE
        self._participants: list[TransactionParticipant] = []

    def enlist(self, participant: TransactionParticipant) -> None:
        if self.state is not TxnState.ACTIVE:
            raise InvariantViolationError(
                f"transaction {self.txn_id} is {self.state.value}"
            )
        if participant not in self._participants:
            self._participants.append(participant)

    def commit(self) -> None:
        self.coordinator._commit(self)

    def abort(self) -> None:
        self.coordinator._abort(self)

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.state is TxnState.ACTIVE:
            if exc_type is None:
                self.commit()
            else:
                self.abort()


class TransactionCoordinator:
    """Presumed-abort 2PC coordinator with its own forced commit log."""

    def __init__(self, machine: Machine, name: str = "txn-coordinator"):
        self.machine = machine
        self.log = DurableLog(machine, name)
        self._next_txn_id = 1
        self.commits = 0
        self.aborts = 0
        self.one_phase_commits = 0
        self.two_phase_commits = 0

    def begin(self) -> Transaction:
        txn = Transaction(self, self._next_txn_id)
        self._next_txn_id += 1
        return txn

    # ------------------------------------------------------------------
    def _commit(self, txn: Transaction) -> None:
        if txn.state is not TxnState.ACTIVE:
            raise InvariantViolationError(
                f"transaction {txn.txn_id} already {txn.state.value}"
            )
        participants = txn._participants
        if not participants:
            txn.state = TxnState.COMMITTED
            self.commits += 1
            return
        if len(participants) == 1:
            # One-phase: the single participant's force is the commit
            # point; the coordinator writes nothing.
            participants[0].commit(txn.txn_id, forced=True)
            self.one_phase_commits += 1
        else:
            # Phase 1: every participant forces a prepare record.
            for participant in participants:
                participant.prepare(txn.txn_id)
            # Commit point: the coordinator forces its decision.
            self.log.append("commit", txn.txn_id)
            self.log.force()
            # Phase 2: lazy, unforced commit records downstream.
            for participant in participants:
                participant.commit(txn.txn_id, forced=False)
            self.two_phase_commits += 1
        txn.state = TxnState.COMMITTED
        self.commits += 1

    def _abort(self, txn: Transaction) -> None:
        if txn.state is not TxnState.ACTIVE:
            return
        for participant in txn._participants:
            participant.abort(txn.txn_id)
        txn.state = TxnState.ABORTED
        self.aborts += 1

    def crash(self) -> None:
        """Lose the volatile buffer; repair the log; resume transaction
        IDs past every decision on the stable log so a recovered
        coordinator never reuses an ID a participant may still hold an
        in-doubt prepare for."""
        self.log.crash()
        committed = self.committed_txns()
        self._next_txn_id = max(
            self._next_txn_id, max(committed, default=0) + 1
        )

    def committed_txns(self) -> set[int]:
        """Transaction IDs with a forced commit decision on the log
        (used by participants for in-doubt resolution)."""
        return {
            value for tag, value in self.log.records() if tag == "commit"
        }

    @property
    def total_forces(self) -> int:
        return self.log.forces
