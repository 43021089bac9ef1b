"""Pluggable schedule policies for the deterministic scheduler.

The scheduler's one nondeterministic decision — *which READY session
runs next* — is delegated to a :class:`SchedulePolicy`.  The default,
:class:`SeededRandomPolicy`, reproduces the historical seeded draw
byte-for-byte, so every existing workload interleaves exactly as before.
:class:`ReplayPolicy` follows an explicit choice sequence (the payload
of a SCHEDULE_ID emitted by the explorer), and :class:`ControlledPolicy`
is the explorer's driver: it follows a forced prefix, then falls back to
the smallest READY session, recording every step it observed.

A *step* is everything one session executes between two scheduling
decisions.  After each step the scheduler hands a policy that
overrides ``observe`` a :class:`ScheduleStep` carrying the step's
*footprint* — the set of process names whose log or state the step
touched — which is what the DPOR race analysis in ``explore.py`` uses
as its commutativity table: two adjacent steps of different sessions
commute iff their footprints are disjoint.  (Simulated-clock advances
are deliberately treated as commutative: charges are additive and
order-independent; the one exception, group-commit window deadlines,
is why the explorer keeps group commit off by default.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import DeterministicScheduler, Session


@dataclass(frozen=True)
class ScheduleStep:
    """One scheduling decision and the step it produced."""

    index: int
    chosen: int
    #: Session indices that were READY when the decision was taken.
    enabled: tuple[int, ...]
    #: Process names whose log/state the step touched (the DPOR
    #: commutativity footprint).
    touched: frozenset[str]
    #: Tag the session was parked at before this step (None on first run).
    park_tag: str | None
    #: Tag the session parked at when the step ended (None if it finished).
    end_tag: str | None
    #: Session state after the step (ready/blocked/done/failed).
    final_state: str


class SchedulePolicy:
    """Decides which READY session the scheduler resumes next.

    ``choose`` and ``observe`` run on whichever thread takes the
    decision — the main thread for a run's first, the session thread
    whose step just ended for every later one — so neither may read
    ``scheduler.current_session()``.  ``observe`` is called, and a
    :class:`ScheduleStep` built, only for a policy class that overrides
    it (checked once per ``run()``)."""

    def begin_run(self, scheduler: "DeterministicScheduler") -> None:
        """Called at the top of every ``run()``."""

    def choose(
        self, ready: Sequence["Session"], scheduler: "DeterministicScheduler"
    ) -> "Session":
        raise NotImplementedError

    def observe(self, step: ScheduleStep) -> None:
        """Called after the chosen session suspended again."""


class SeededRandomPolicy(SchedulePolicy):
    """The historical behaviour: a seeded uniform draw over READY.

    The RNG lives across runs on the same policy object, exactly like
    the scheduler's old ``self._rng``, so same-seed byte-identity is
    preserved for workloads that reuse one scheduler.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)

    def choose(
        self, ready: Sequence["Session"], scheduler: "DeterministicScheduler"
    ) -> "Session":
        return ready[self._rng.randrange(len(ready))]


class ScheduleDivergenceError(Exception):
    """A replayed choice did not match the live READY set."""


class ReplayPolicy(SchedulePolicy):
    """Replay an explicit choice sequence (a decoded SCHEDULE_ID).

    Each entry is the *session index* to resume at that decision.  A
    choice naming a session that is not READY means the program being
    replayed is not the program that was explored — that is a hard
    error, not a fallback.  Past the end of the sequence the smallest
    READY session runs (deterministic, matching the explorer's own
    fallback), so prefixes emitted mid-exploration replay cleanly.
    """

    def __init__(self, choices: Sequence[int]):
        self.choices = list(choices)
        self.steps: list[ScheduleStep] = []
        self._cursor = 0

    def begin_run(self, scheduler: "DeterministicScheduler") -> None:
        self._cursor = 0
        self.steps = []

    def choose(
        self, ready: Sequence["Session"], scheduler: "DeterministicScheduler"
    ) -> "Session":
        if self._cursor < len(self.choices):
            want = self.choices[self._cursor]
            self._cursor += 1
            for session in ready:
                if session.index == want:
                    return session
            raise ScheduleDivergenceError(
                f"replay step {self._cursor - 1}: session #{want} is not "
                f"READY (ready: {sorted(s.index for s in ready)}) — the "
                "schedule was recorded against a different program"
            )
        return min(ready, key=lambda s: s.index)

    def observe(self, step: ScheduleStep) -> None:
        self.steps.append(step)


class ControlledPolicy(SchedulePolicy):
    """The explorer's driver: forced prefix, then first-ready, recording.

    Identical choice behaviour to :class:`ReplayPolicy` (so an emitted
    SCHEDULE_ID and the exploration run that produced it are the same
    schedule), but divergence inside the forced prefix is still a hard
    error — the explorer only ever re-runs prefixes it already saw, so
    divergence means the workload is nondeterministic.
    """

    def __init__(self, prefix: Sequence[int] = ()):
        self.prefix = list(prefix)
        self.steps: list[ScheduleStep] = []
        self._cursor = 0

    def begin_run(self, scheduler: "DeterministicScheduler") -> None:
        self._cursor = 0
        self.steps = []

    def choose(
        self, ready: Sequence["Session"], scheduler: "DeterministicScheduler"
    ) -> "Session":
        if self._cursor < len(self.prefix):
            want = self.prefix[self._cursor]
            self._cursor += 1
            for session in ready:
                if session.index == want:
                    return session
            raise ScheduleDivergenceError(
                f"exploration prefix step {self._cursor - 1}: session "
                f"#{want} is not READY "
                f"(ready: {sorted(s.index for s in ready)}) — "
                "the workload under exploration is nondeterministic"
            )
        return min(ready, key=lambda s: s.index)

    def observe(self, step: ScheduleStep) -> None:
        self.steps.append(step)

    @property
    def schedule(self) -> list[int]:
        return [step.chosen for step in self.steps]
