"""Crash injection.

The paper evaluates recovery by killing processes; its correctness
argument (Section 2.2 / Figure 2) enumerates three failure points of a
component serving a call:

1. before its outgoing call (message 3) is sent;
2. after message 3 is sent but before its reply (message 2) is sent;
3. after message 2 is sent.

The injector arms one-shot crashes at named pipeline points which the
runtime fires as execution passes them:

==============================  ====================================
point                           where in the pipeline
==============================  ====================================
``incoming.before_log``         message 1 arrived, nothing logged yet
``incoming.after_log``          message 1 logged per the algorithm
``method.before``               about to execute the method
``method.after``                method body finished
``outgoing.before_log``         message 3 built, nothing logged
``outgoing.before_send``        message 3 logged/forced, not sent
``reply_received.before_log``   message 4 arrived, not logged
``reply_received.after_log``    message 4 logged
``reply.before_send``           message 2 logged/forced, not sent
``reply.after_send``            message 2 delivered to the caller
==============================  ====================================

All points except ``reply.after_send`` raise a :class:`CrashSignal`
that the runtime converts to a process crash plus a recognized failure
exception at the caller.  ``reply.after_send`` crashes the process
silently — the caller already has the reply (Figure 2's third failure
point).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..errors import ConfigurationError, CrashSignal

if TYPE_CHECKING:  # pragma: no cover
    from ..core.process import AppProcess

KNOWN_POINTS = frozenset(
    {
        "incoming.before_log",
        "incoming.after_log",
        "method.before",
        "method.after",
        "outgoing.before_log",
        "outgoing.before_send",
        "reply_received.before_log",
        "reply_received.after_log",
        "reply.before_send",
        "reply.after_send",
    }
)


@dataclass
class _ArmedCrash:
    process_name: str
    point: str
    countdown: int  # crash on the countdown-th matching fire


class CrashInjector:
    """One-shot, point-targeted process killer."""

    def __init__(self) -> None:
        self._armed: list[_ArmedCrash] = []
        self.fired: list[tuple[str, str]] = []  # (process, point) history

    def arm(
        self, process: Any, point: str, occurrence: int = 1
    ) -> None:
        """Crash ``process`` the ``occurrence``-th time execution passes
        ``point``.  ``process`` may be an AppProcess or its name."""
        if point not in KNOWN_POINTS:
            raise ConfigurationError(
                f"unknown crash point {point!r}; known points: "
                f"{sorted(KNOWN_POINTS)}"
            )
        if occurrence < 1:
            raise ConfigurationError("occurrence must be >= 1")
        name = process if isinstance(process, str) else process.name
        self._armed.append(_ArmedCrash(name, point, occurrence))

    def disarm_all(self) -> None:
        self._armed.clear()

    @property
    def armed_count(self) -> int:
        return len(self._armed)

    # ------------------------------------------------------------------
    # firing (called by the runtime)
    # ------------------------------------------------------------------
    def _match(self, point: str, process: "AppProcess") -> bool:
        for armed in self._armed:
            if armed.process_name != process.name or armed.point != point:
                continue
            armed.countdown -= 1
            if armed.countdown == 0:
                self._armed.remove(armed)
                self.fired.append((process.name, point))
                return True
            return False
        return False

    def fire(self, point: str, process: "AppProcess") -> None:
        """Raise a crash signal if a crash is due at this point."""
        if self._armed and self._match(point, process):
            # the runtime crashes the process on catch
            raise CrashSignal(process.name, point, process=process)

    def fire_silent(self, point: str, process: "AppProcess") -> None:
        """Crash without unwinding (the reply already left)."""
        if self._armed and self._match(point, process):
            self.fired[-1] = (process.name, point)
            process.crash()
