"""Deterministic cooperative scheduling of N client sessions.

The runtime is single-threaded by construction: every simulated cost is
charged on one shared clock and every data structure assumes one call
chain at a time.  This module adds concurrency *without* giving up
determinism: each session runs on a real thread, but a turnstile
guarantees exactly one thread is ever runnable, and the session to
resume next is delegated to a pluggable :class:`SchedulePolicy`
(``policies.py``) — by default a seeded uniform draw over the READY
set.  Two runs with the same seed (and the same session programs)
therefore interleave identically — byte-identical logs, traces and
clocks.  ``ReplayPolicy`` replays an explicit choice sequence, and the
schedule explorer (``explore.py``) drives the same hook to enumerate
the reduced schedule space systematically.

The scheduler also maintains a **vector clock** per session — ticked at
every yield point, merged across the runtime's real synchronisation
edges (context admission, group-commit batches, ``spawn``) — which the
trace checker's causal invariants TRC107/TRC108 read via
``current_vc()`` (docs/internals.md section 13).

Sessions switch only at explicit *yield points*, which the runtime
places at every durability and network boundary:

* ``log.append:<process>``  — before a record enters the log buffer;
* ``log.force:<process>``   — after a force (and its disk write) completed;
* ``net.request:<process>`` — after the request message was transmitted;
* ``net.reply:<process>``   — after the reply was transmitted, before it
  is returned to the caller.

Between a session's append and the force that makes it stable there is
deliberately *no* yield: the append+force pair is the unit the paper's
commit conditions reason about.

A session that parks (at a yield point, or in a :meth:`block_until`
that must wait) or finishes takes the next scheduling decision on its
own thread and releases the chosen session's turn directly: one thread
switch per step, none when it picks itself.  The main thread takes a
run's first decision and then sleeps until the run is over — every
session finished, one failed, a deadlock, or a decision that raised,
which :meth:`DeterministicScheduler.run` re-raises.

The runtime's commit gate (``core/commit.py``) owns durability; the
scheduler only reports its run, ``spawn``, context sync edges and
decision loop (window close and sleep) to it.

Crash handling: a session suspended inside a process that another
session crashes is a *ghost* of a dead incarnation.  Each session keeps
a stack of ``(process, incarnation)`` frames; on resume, an innermost
frame whose incarnation a crash has replaced raises a fresh
:class:`CrashSignal` marked ``stale=True`` — the process-boundary
conversion in the runtime turns it into
:class:`ComponentUnavailableError` *without* re-crashing the (by then
possibly recovered) process.

The serial runtime is the one-session case of the same hooks: every
runtime holds a :class:`SerialScheduler` as ``runtime.scheduler``, and
:meth:`DeterministicScheduler.run` installs itself only for the
duration of a run.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, insort
from contextlib import contextmanager, nullcontext
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterator

from ..analysis import vector_clock
from ..errors import CrashSignal, InvariantViolationError
from .policies import SchedulePolicy, ScheduleStep, SeededRandomPolicy
from .tags import YIELD_TAGS, validate_tag

if TYPE_CHECKING:  # pragma: no cover
    from ..core.context import Context
    from ..core.process import AppProcess, Incarnation, LogStream
    from ..core.runtime import PhoenixRuntime


class SchedulerAbort(BaseException):
    """Injected into suspended sessions when the run is torn down (one
    session failed); derives from BaseException so application handlers
    cannot swallow it."""


_READY = "ready"
_RUNNING = "running"
_BLOCKED = "blocked"
_DONE = "done"
_FAILED = "failed"

_INDEX = attrgetter("index")
#: How long run() waits for each finished session thread to exit.
_JOIN_TIMEOUT_S = 30.0


def _held_lock():
    """One half of a turnstile: a raw lock its waiter acquires to park
    and the other side releases to hand over the turn."""
    lock = threading.Lock()
    lock.acquire()
    return lock


class Session:
    """One client session: a function running on its own (parked) thread."""

    __slots__ = (
        "index", "fn", "state", "turn", "thread", "result", "error",
        "predicate", "block_tag", "frames", "system", "step_touches",
    )

    def __init__(self, index: int, fn: Callable[[], object]):
        self.index = index
        self.fn = fn
        self.state = _READY
        self.turn = _held_lock()
        self.thread: threading.Thread | None = None
        self.result: object = None
        self.error: BaseException | None = None
        self.predicate: Callable[[], bool] | None = None
        self.block_tag: str | None = None
        #: Spawned by the runtime (e.g. a recovery drain worker) rather
        #: than passed to run(); excluded from run()'s result list.
        self.system = False
        #: (process, its incarnation at entry) for every process boundary
        #: the session is currently inside, outermost first.
        self.frames: list[tuple["AppProcess", "Incarnation"]] = []
        #: Process names touched since the last scheduling decision —
        #: the DPOR commutativity footprint of the current step.
        self.step_touches: set[str] = set()

    def __repr__(self) -> str:
        tag = f" at {self.block_tag}" if self.block_tag else ""
        return f"Session(#{self.index}, {self.state}{tag})"


class SerialScheduler:
    """The one-session scheduler: ``runtime.scheduler`` whenever no
    :class:`DeterministicScheduler` run is active.

    One call chain runs at a time, so there is nobody to yield to, no
    session to name, no clock or context claim to keep, and the one
    session drives every recovery it meets.  A wait whose predicate does
    not already hold could never be satisfied, so :meth:`block_until`
    raises instead of waiting."""

    __slots__ = ()

    def yield_point(self, tag: str) -> None:
        pass

    def block_until(self, predicate: Callable[[], bool], tag: str) -> None:
        if not predicate():
            raise InvariantViolationError(
                f"the serial runtime cannot block (waiting on {tag})"
            )

    def current_session(self) -> None:
        return None

    def current_session_id(self) -> None:
        return None

    def current_vc(self) -> None:
        return None

    def enter_process(self, process: "AppProcess") -> bool:
        return False

    def exit_process(self) -> None:
        pass

    def acquire_context(self, context: "Context") -> bool:
        return False

    def release_context(self, context: "Context") -> None:
        pass

    def publish_context(self, context: "Context") -> None:
        pass

    def merge_context(self, context: "Context") -> None:
        pass

    def driving_recovery(self, process: "AppProcess") -> nullcontext:
        return nullcontext()

    def is_recovery_driver(self, process: "AppProcess") -> bool:
        return True


class DeterministicScheduler:
    """Seeded cooperative scheduler over a :class:`PhoenixRuntime`.

    ``run(fns)`` executes the session functions interleaved and returns
    their results in order; the first failing session aborts the rest
    and its error is re-raised.  For the duration of a run the scheduler
    is ``runtime.scheduler``, so the runtime's hooks route into it; the
    runtime's serial scheduler is restored when the run ends.
    """

    def __init__(
        self,
        runtime: "PhoenixRuntime",
        seed: int = 0,
        policy: SchedulePolicy | None = None,
    ):
        self.runtime = runtime
        self.seed = seed
        #: Which READY session runs next is delegated to the policy;
        #: the default reproduces the historical seeded draw exactly.
        self.policy: SchedulePolicy = (
            policy if policy is not None else SeededRandomPolicy(seed)
        )
        self.sessions: list[Session] = []
        self._by_thread: dict[int, Session] = {}
        self._main_turn = _held_lock()
        self._abort = False
        self.active = False
        #: The runtime's commit gate, told of every sync edge.
        self.commit = runtime.commit
        self._recovery_drivers: dict["AppProcess", Session | None] = {}
        #: Per-session vector clocks (session index -> live clock),
        #: ticked at yield points, merged across sync edges.
        self._vcs: dict[int, dict[int, int]] = {}
        #: Release-time clock of the last session that served each
        #: context URI; merged into the next acquirer (admission is a
        #: real lock, hence a real happens-before edge).
        self._context_vcs: dict[str, dict[int, int]] = {}
        self._step_index = 0
        #: Decision state, reset by run() (see :meth:`_decide`): READY
        #: sessions sorted by index, BLOCKED ones, how many of
        #: ``sessions`` have joined them, and an error a decision raised
        #: on a session thread, for run() to re-raise.
        self._ready: list[Session] = []
        self._blocked: list[Session] = []
        self._joined = 0
        self._error: BaseException | None = None
        #: Whether the policy overrides ``observe`` (decided per run);
        #: only then are the READY tuple of the last decision and the
        #: running session's park tag kept for its ScheduleStep.
        self._observing = False
        self._enabled: tuple[int, ...] | None = None
        self._park_tag: str | None = None
        #: yield tag -> the process it names (see :meth:`_tag_touch`).
        self._tag_touches: dict[str, str | None] = {}

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def current_session(self) -> Session | None:
        """The session owning the calling thread (None on the main
        thread, or before/after a run: session threads exist only
        during one)."""
        return self._by_thread.get(threading.get_ident())

    def current_session_id(self) -> int | None:
        session = self.current_session()
        return None if session is None else session.index

    # ------------------------------------------------------------------
    # vector clocks
    # ------------------------------------------------------------------
    def session_clock(self, session: Session) -> dict[int, int]:
        return self._vcs.setdefault(session.index, {})

    def _tick(self, session: Session) -> None:
        vector_clock.tick(self.session_clock(session), session.index)

    def current_vc(self) -> vector_clock.Snapshot | None:
        """Snapshot of the calling session's clock, for TraceEvent.vc;
        None on the main thread or outside a run."""
        session = self.current_session()
        if session is None:
            return None
        return vector_clock.snapshot(self.session_clock(session))

    # ------------------------------------------------------------------
    # the run and its decisions
    # ------------------------------------------------------------------
    def run(self, fns: list[Callable[[], object]]) -> list[object]:
        if self.active:
            raise InvariantViolationError("scheduler is already running")
        self.sessions = [Session(i, fn) for i, fn in enumerate(fns)]
        self.active = True
        self._abort = False
        self._vcs = {s.index: {} for s in self.sessions}
        self._context_vcs.clear()
        self.commit.begin_run(self)
        self._step_index = 0
        self._ready = []
        self._blocked = []
        self._joined = 0
        self._enabled = None
        self._error = None
        self._observing = (
            type(self.policy).observe is not SchedulePolicy.observe
        )
        self.policy.begin_run(self)
        for session in self.sessions:
            self._start(session, f"phx-session-{session.index}")
        serial = self.runtime.scheduler
        self.runtime.scheduler = self
        try:
            # The first decision is the main thread's; every later one
            # is taken by the session whose step ends, and the main
            # thread wakes again only when the run is over.
            first = self._decide(None)
            if first is not None:
                first.turn.release()
                self._main_turn.acquire()
        finally:
            self._abort_survivors()
            self.active = False
            self.runtime.scheduler = serial
            self.commit.end_run()
            self._recovery_drivers.clear()
            self._by_thread.clear()
            for session in self.sessions:
                if session.thread is not None:
                    session.thread.join(timeout=_JOIN_TIMEOUT_S)
        if self._error is not None:
            error, self._error = self._error, None
            raise error
        for session in self.sessions:
            if session.state == _FAILED and session.error is not None:
                raise session.error
        # Reached only with no error propagating: nothing to mask.  A
        # thread that outlives run() would act on the next run's state.
        for session in self.sessions:
            if session.thread is not None and session.thread.is_alive():
                raise InvariantViolationError(  # repr names the block_tag
                    f"{session!r}: session thread still alive "
                    f"{_JOIN_TIMEOUT_S:g}s after run() tore it down"
                )
        return [s.result for s in self.sessions if not s.system]

    def _decide(self, ended: Session | None) -> Session | None:
        """One scheduling decision, taken by whichever thread holds the
        turn: the main thread for a run's first, then the session whose
        step just ended (``ended``: it parked or finished).

        Ends that step, then picks the successor: joins ``spawn()``ed
        sessions, closes due group-commit windows, re-polls the blocked
        predicates, sleeps to a window deadline while everyone is
        blocked, and asks the policy.  Returns the successor, already
        RUNNING (it may be ``ended`` itself), or None when the run is
        over: every session finished, or ``ended`` failed.  A deadlock
        or a policy error raises.

        ``_ready`` (sorted by session index: what a full rescan would
        hand the policy) and ``_blocked`` live across decisions.  A step
        changes only its own session's state and only blocked sessions
        have a predicate to re-poll, so the per-step cost is
        O(blocked), not O(sessions)."""
        ready = self._ready
        if ended is not None:
            self._end_step(ended)
            if ended.state == _FAILED:
                return None
        while True:
            if self._joined < len(self.sessions):
                # run()'s sessions, then spawn()ed ones: indices only grow.
                ready.extend(self.sessions[self._joined:])
                self._joined = len(self.sessions)
                self._enabled = None
            blocked = self._blocked
            if not ready and not blocked:
                return None
            self.commit.close_due_windows()
            woken = [s for s in blocked if s.predicate()]
            if woken:
                for session in woken:
                    session.state = _READY
                    insort(ready, session, key=_INDEX)
                self._blocked = [s for s in blocked if s.state == _BLOCKED]
                self._enabled = None
            if ready:
                break
            # Everyone is blocked.  If a group-commit window is still
            # open, the only missing event is simulated time: sleep to
            # the earliest deadline and re-evaluate.
            if not self.commit.sleep_to_next_window():
                raise InvariantViolationError(
                    "scheduler deadlock: all sessions blocked: "
                    + ", ".join(repr(s) for s in sorted(blocked, key=_INDEX))
                )
        chosen = self.policy.choose(ready, self)
        # ``ready`` now holds exactly this run's READY sessions, so
        # membership is a state check, not a search.
        at = chosen.index
        if (
            chosen.state != _READY
            or at >= len(self.sessions)
            or self.sessions[at] is not chosen
        ):
            raise InvariantViolationError(
                f"schedule policy chose non-ready session {chosen!r}"
            )
        if self._observing:
            self._park_tag = chosen.block_tag
            self._seed_touches(chosen, chosen.block_tag)
            if self._enabled is None:
                self._enabled = tuple(s.index for s in ready)
        chosen.state = _RUNNING
        return chosen

    def _end_step(self, session: Session) -> None:
        """``session``'s step ended: it parked (READY or BLOCKED) or
        finished.  The :class:`ScheduleStep` is built only for a policy
        that overrides ``observe``: nobody else reads it."""
        if self._observing:
            step = ScheduleStep(
                index=self._step_index,
                chosen=session.index,
                enabled=self._enabled,
                touched=frozenset(session.step_touches),
                park_tag=self._park_tag,
                end_tag=session.block_tag,
                final_state=session.state,
            )
        self._step_index += 1
        session.step_touches.clear()
        if session.state != _READY:
            ready = self._ready
            del ready[bisect_left(ready, session.index, key=_INDEX)]
            if session.state == _BLOCKED:
                self._blocked.append(session)
            self._enabled = None
        if self._observing:
            self.policy.observe(step)

    def _seed_touches(self, session: Session, park_tag: str | None) -> None:
        """A step resumed at a registered yield point re-touches that
        tag's process: the very next action (the append after a
        ``log.append`` park, the delivery after ``net.request``) acts on
        it before any further touch is recorded."""
        if park_tag:
            process_name = self._tag_touch(park_tag)
            if process_name:
                session.step_touches.add(process_name)

    def _tag_touch(self, tag: str) -> str | None:
        """The process a ``family:process`` tag names ('' for none), or
        None when its family is not a registered yield family.  Memoized:
        a run passes the same few tags thousands of times."""
        try:
            return self._tag_touches[tag]
        except KeyError:
            family, _, process_name = tag.partition(":")
            touch = process_name if family in YIELD_TAGS else None
            self._tag_touches[tag] = touch
            return touch

    def spawn(self, fn: Callable[[], object], name: str = "worker") -> Session:
        """Add a *system* session to the running interleaving (e.g. a
        recovery drain worker).  The new session joins the READY set
        from the next scheduling decision on, participates in the
        seeded draw like any other session, and keeps the run alive
        until it finishes — but its result is not part of ``run()``'s
        return value.  Deterministic: the spawn happens at a fixed
        point in the spawning session's execution, so two same-seed
        runs create it at the identical decision index."""
        if not self.active:
            raise InvariantViolationError(
                "cannot spawn a session outside an active run"
            )
        session = Session(len(self.sessions), fn)
        session.system = True
        # The child starts causally after its spawner: it inherits the
        # spawning session's clock (a copy — independent from here on).
        parent = self.current_session()
        self._vcs[session.index] = (
            dict(self.session_clock(parent)) if parent is not None else {}
        )
        self.commit.spawned(parent, session)
        self.sessions.append(session)
        self._start(session, f"phx-session-{session.index}-{name}")
        return session

    def _start(self, session: Session, name: str) -> None:
        session.thread = threading.Thread(
            target=self._session_body, args=(session,), name=name,
            daemon=True,
        )
        session.thread.start()

    def _session_body(self, session: Session) -> None:
        self._by_thread[threading.get_ident()] = session
        session.turn.acquire()
        try:
            if self._abort:
                raise SchedulerAbort()
            session.result = session.fn()
            session.state = _DONE
        except SchedulerAbort:
            session.state = _DONE
        except BaseException as exc:  # noqa: BLE001 - reported to run()
            session.error = exc
            session.state = _FAILED
        finally:
            # A finished session is never its own successor.
            self._pass_turn(session).release()

    def _pass_turn(self, session: Session) -> threading.Lock | None:
        """``session`` parked or finished: take the next decision on its
        thread.  Returns the lock to release — the successor's turn,
        ``_main_turn`` once the run is over (an error the decision
        raised is kept for run() to re-raise), or None when the session
        picked itself and simply runs on."""
        if self._abort:
            return self._main_turn  # teardown: see _abort_survivors
        try:
            successor = self._decide(session)
        except BaseException as exc:  # noqa: BLE001 - re-raised by run()
            self._error = exc
            return self._main_turn
        if successor is None:
            return self._main_turn
        return None if successor is session else successor.turn

    def _switch(self, session: Session, state: str, tag: str) -> None:
        session.state = state
        session.block_tag = tag
        turn = self._pass_turn(session)
        if turn is not None:
            turn.release()
            session.turn.acquire()
        session.block_tag = None
        if self._abort:
            raise SchedulerAbort()

    def _abort_survivors(self) -> None:
        """Teardown, on the main thread: resume every unfinished session
        until it has unwound (it raises :class:`SchedulerAbort` at its
        next resume, and every park on its way out hands the turn
        straight back here)."""
        self._abort = True
        for session in self.sessions:
            while session.state not in (_DONE, _FAILED):
                session.state = _RUNNING
                session.turn.release()
                self._main_turn.acquire()
        self._abort = False

    # ------------------------------------------------------------------
    # yielding and blocking (called from session threads)
    # ------------------------------------------------------------------
    def yield_point(self, tag: str) -> None:
        """Hand the turn to the next session; a no-op on the main
        thread.  The tag's family must be registered in
        ``tags.YIELD_TAGS`` — a typo'd tag would silently hide a
        durability boundary from schedule exploration, so it is a hard
        error instead."""
        session = self.current_session()
        if session is None:
            return
        process_name = self._tag_touch(tag)
        if process_name is None:
            try:
                validate_tag(tag)
            except ValueError as exc:
                raise InvariantViolationError(str(exc)) from None
        if process_name:
            session.step_touches.add(process_name)
        self._tick(session)
        self._switch(session, _READY, tag)
        self._check_ghost(session)

    def block_until(self, predicate: Callable[[], bool], tag: str) -> None:
        """Suspend until ``predicate()`` holds.  Re-checked after every
        resume: a promoted waiter may lose the race to another session
        (e.g. two sessions waiting on one context claim)."""
        session = self.current_session()
        if session is None:
            if not predicate():
                raise InvariantViolationError(
                    f"main thread cannot block (waiting on {tag})"
                )
            return
        while not predicate():
            session.predicate = predicate
            self._tick(session)
            self._switch(session, _BLOCKED, tag)
            session.predicate = None
            self._check_ghost(session)

    # ------------------------------------------------------------------
    # process frames & ghost detection
    # ------------------------------------------------------------------
    def enter_process(self, process: "AppProcess") -> bool:
        """Record that the current session entered ``process``; returns
        whether a frame was pushed (sessions only)."""
        session = self.current_session()
        if session is None:
            return False
        session.step_touches.add(process.name)
        session.frames.append((process, process.incarnation))
        return True

    def exit_process(self) -> None:
        session = self.current_session()
        if session is not None and session.frames:
            session.frames.pop()

    def _check_ghost(self, session: Session) -> None:
        """Did the process this session is innermost-inside crash while
        it was suspended?  Outer frames are deliberately not checked
        here: an inner call in a live process is allowed to finish (the
        crashed caller's replay will regenerate it with the same call
        ID), and the outer frame's staleness is caught at the next yield
        after the stack pops back to it."""
        if not session.frames:
            return
        process, incarnation = session.frames[-1]
        if process.incarnation is not incarnation:
            raise CrashSignal(
                process.name, "interleaved crash", process=process, stale=True
            )

    # ------------------------------------------------------------------
    # per-context admission (one serving session per context)
    # ------------------------------------------------------------------
    def acquire_context(self, context: "Context") -> bool:
        """Claim exclusive service of ``context`` for the current
        session; blocks while another session owns it.  Returns True
        when a claim was taken (and must be released); False for main-
        thread callers and same-session nesting (``begin_incoming``
        reports genuine re-entrancy there)."""
        session = self.current_session()
        if session is None:
            return False
        session.step_touches.add(context.process.name)
        if context.service_owner == session.index:
            return False
        while context.service_owner is not None:
            self.block_until(
                lambda: context.service_owner is None,
                tag=f"context:{context.uri}",
            )
        context.service_owner = session.index
        # Admission is a real lock: everything the previous serving
        # session did up to its release happens-before this claim.
        self._merge(session, context)
        return True

    def release_context(self, context: "Context") -> None:
        session = self.current_session()
        if session is not None and context.service_owner == session.index:
            # Merge, never overwrite: recovery replay publishes into the
            # stored clock *while* a claim is held (it bypasses
            # admission), and the owner has not necessarily merged that
            # publish — replacing the dict would drop the edge forever.
            self._publish(session, context)
            context.service_owner = None

    def publish_context(self, context: "Context") -> None:
        """Record a release edge on ``context`` outside the admission
        path.  Recovery replay (eager drains and on-demand component
        replay) touches context state without ever claiming it through
        ``acquire_context`` — the recovery marks serialize access
        instead — so the replaying session publishes its clock here and
        the next admission merges it, keeping the happens-before order
        TRC108 checks complete."""
        session = self.current_session()
        if session is not None:
            self._publish(session, context)

    def _publish(self, session: Session, context: "Context") -> None:
        vector_clock.merge_into(
            self._context_vcs.setdefault(context.uri, {}),
            self.session_clock(session),
        )
        self.commit.release_edge(session, context.uri)

    def merge_context(self, context: "Context") -> None:
        """Record an acquire edge on ``context`` outside the admission
        path: pull the clock the last releaser/publisher stored into
        the current session.  ``drain_context`` consults the per-context
        recovery state as its synchronisation — a caller admitted
        mid-recovery finds the context already drained and relies on
        the drainer's effects, so it must also inherit the drainer's
        clock even though no ``acquire_context`` interleaved."""
        session = self.current_session()
        if session is not None:
            self._merge(session, context)

    def _merge(self, session: Session, context: "Context") -> None:
        stored = self._context_vcs.get(context.uri)
        if stored:
            vector_clock.merge_into(self.session_clock(session), stored)
        self.commit.acquire_edge(session, context.uri)

    # ------------------------------------------------------------------
    # recovery driving
    # ------------------------------------------------------------------
    @contextmanager
    def driving_recovery(self, process: "AppProcess") -> Iterator[None]:
        """Mark the current session as the one driving ``process``'s
        recovery; other sessions' deliveries to it park until the state
        leaves RECOVERING."""
        session = self.current_session()
        self._recovery_drivers[process] = session
        try:
            yield
        finally:
            if self._recovery_drivers.get(process) is session:
                del self._recovery_drivers[process]

    def is_recovery_driver(self, process: "AppProcess") -> bool:
        return (
            process in self._recovery_drivers
            and self._recovery_drivers[process] is self.current_session()
        )

    def group_force(
        self, stream: "LogStream", commit_lsn: int | None = None
    ) -> bool:
        """The commit gate's batch body, behind the name perf/spans.py
        wraps."""
        return self.commit.group_force(stream, commit_lsn)
