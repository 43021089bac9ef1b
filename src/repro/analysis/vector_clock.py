"""Vector clocks for the concurrent trace checker.

The deterministic scheduler (docs/internals.md section 11) runs N
sessions cooperatively: exactly one session executes between two yield
points.  A vector clock per session — ticked at every yield point,
merged across the synchronisation edges the runtime actually has
(context admission, group-commit batches, ``spawn``) — gives the trace
checker a *causal* order over trace events, strictly weaker than the
total trace order.  TRC107 (causal prefix stable at commit) and TRC108
(cross-session state race detection) in ``trace_check.py`` are built on
this module; the scheduler itself maintains the live clocks.

Two representations are used:

* **live clocks** are plain ``dict[int, int]`` (session index -> tick
  count), mutated in place by the scheduler;
* **snapshots** are dense ``tuple[int, ...]`` indexed by session
  number, frozen onto ``TraceEvent.vc`` at the moment a logging decision
  is traced.  Zero — or an index past the end — means nothing observed
  of that session; the last entry is never zero, so equal clocks freeze
  to equal snapshots.  One flat tuple per event holds only references
  to the live clock's own ints: no per-session pair objects for the
  collector to track, and ``component`` is an index, not a scan.

The happens-before rule is the standard one, with a trace-order
tiebreak: for events ``f`` (earlier in trace order) and ``e``,
``hb(f, e)`` iff ``f``'s own component in its clock is <= ``e``'s view
of ``f``'s session.  Trace order supplies the direction; the component
comparison supplies (non-)causality.  Events recorded outside any
session (``vc is None``) are totally ordered with every session event,
because the main thread only runs while no scheduler run is active.
"""

from __future__ import annotations

Snapshot = tuple[int, ...]


def fresh_clock() -> dict[int, int]:
    """A new, empty live clock (all components implicitly zero)."""
    return {}


def tick(clock: dict[int, int], session: int) -> None:
    """Advance ``session``'s own component in its live clock."""
    clock[session] = clock.get(session, 0) + 1


def merge_into(dst: dict[int, int], src: dict[int, int]) -> None:
    """Pointwise max of ``src`` into ``dst`` (a synchronisation edge)."""
    for session, count in src.items():
        if count > dst.get(session, 0):
            dst[session] = count


def snapshot(clock: dict[int, int]) -> Snapshot:
    """Freeze a live clock into the form stored on ``TraceEvent.vc``."""
    if not clock:
        return ()
    dense = [0] * (max(clock) + 1)
    for session, count in clock.items():
        dense[session] = count
    return tuple(dense)


def component(vc: Snapshot, session: int) -> int:
    """``session``'s entry in a snapshot (zero when absent)."""
    return vc[session] if session < len(vc) else 0


def happens_before(f_vc: Snapshot | None, f_session: int | None,
                   e_vc: Snapshot | None) -> bool:
    """Is the earlier trace event ``f`` causally before the later ``e``?

    Both events' snapshots are as recorded; ``f`` must precede ``e`` in
    trace order (the caller guarantees this — this function only settles
    causality, not direction).  Serial events (``vc is None``) are
    ordered with everything: the main thread never overlaps a scheduler
    run.
    """
    if f_vc is None or e_vc is None:
        return True
    if f_session is None:
        return True
    return component(f_vc, f_session) <= component(e_vc, f_session)
