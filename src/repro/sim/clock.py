"""Simulated clock.

All elapsed times reported by this library are *simulated milliseconds*.
The paper's evaluation ran on real hardware with a coarse (~15 ms) OS
timer and reported means over 30 runs with up to 12% deviation; the
simulation replaces that with a deterministic clock that every cost in the
system (disk service times, network latency, fixed per-call overheads)
advances explicitly.  This makes every benchmark in ``benchmarks/``
exactly reproducible.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from ..errors import InvariantViolationError


class SimClock:
    """A monotonically advancing simulated clock, in milliseconds."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    def advance(self, delta_ms: float) -> float:
        """Advance the clock by ``delta_ms`` and return the new time.

        Negative advances are invariant violations: simulated time never
        runs backwards.
        """
        if delta_ms < 0:
            raise InvariantViolationError(
                f"clock cannot go backwards (delta={delta_ms})"
            )
        self._now += delta_ms
        return self._now

    def advance_to(self, when_ms: float) -> float:
        """Advance the clock to the absolute time ``when_ms``.

        ``when_ms`` in the past is a no-op: the clock stays where it is.
        This is the common idiom for waiting on a device whose completion
        time may already have passed.
        """
        if when_ms > self._now:
            self._now = when_ms
        return self._now

    def run_lanes(self, lanes: Iterable[Callable[[], None]]) -> float:
        """Fork/join: run each lane as if all started now, side by
        side, and leave the clock at the end of the longest one.

        Sharded recovery drains each shard's replay as one lane, so
        serial recovery time models the shards draining in parallel.
        The lanes still execute one after another; a lane that raises
        (a crash mid-drain) leaves the clock at that lane's own time
        and the remaining lanes do not run.
        """
        base = self._now
        longest = 0.0
        for lane in lanes:
            self._now = base
            lane()
            longest = max(longest, self._now - base)
        self._now = base + longest
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.6f}ms)"


class Stopwatch:
    """Measures elapsed simulated time between ``start`` and ``stop``.

    Used by the benchmark harness to time batches of method calls the way
    the paper does (total elapsed / number of calls).
    """

    def __init__(self, clock: SimClock):
        self._clock = clock
        self._started_at: float | None = None
        self.elapsed: float = 0.0

    def start(self) -> None:
        self._started_at = self._clock.now

    def stop(self) -> float:
        if self._started_at is None:
            raise InvariantViolationError("stopwatch stopped before started")
        self.elapsed = self._clock.now - self._started_at
        self._started_at = None
        return self.elapsed

    def __enter__(self) -> "Stopwatch":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._started_at is not None:
            self.stop()
