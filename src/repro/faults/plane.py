"""The fault plane: named crash sites and deterministic crash triggers.

Durability-relevant boundaries in the runtime call :func:`site_hit` (or
:func:`flush_cut` for torn stable-store writes) with a stable site name,
and ``PhoenixRuntime.fire_hook`` crosses Figure 2's message-pipeline
points (:data:`PIPELINE_POINTS`) as sites ``<point>:<process>``.  With
no plane installed every hook is a free no-op, so instrumented
production code pays one module-global check per site.

An installed :class:`FaultPlane` counts every hit per site.  In *record*
mode it journals each hit, which is how a golden run discovers the crash
points a workload passes through.  In *armed* mode it holds pending
:class:`CrashSpec` triggers: when any pending spec's (site, occurrence)
matches the current hit, the plane raises
:class:`~repro.errors.CrashSignal` (or, for a torn-write spec, returns
the byte cut for the stable file to tear at).  Occurrence counts are
global since the plane was installed, so the same workload driven twice
through the same plane state crashes at the same instant — the
simulation is deterministic end to end.

A spec sequence longer than one implements crash-during-recovery: the
first spec crashes the workload, and the next one fires at a recovery
pass boundary while the first crash is being repaired.

Pipeline sites keep two rules of their own, applied by ``fire_hook``:
they are quiet during replay (a replayed call neither fires nor advances
a count — crash points belong to the original execution), and
``reply.after_send`` is silent: the reply is already with the caller,
so the runtime crashes the process in place instead of unwinding
(Figure 2's third failure point).  :func:`arm` is the by-hand way to
crash a process at one of them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from ..errors import ConfigurationError, CrashSignal

#: Figure 2's message-pipeline points, crossed by every served call:
#: message 1 arrives (``incoming.*``), the method runs (``method.*``),
#: message 3 goes out and message 4 comes back (``outgoing.*``,
#: ``reply_received.*``), and message 2 is sent (``reply.*``).  Each
#: ``before_log``/``after_log`` pair brackets that message's logging.
PIPELINE_POINTS = frozenset(
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


@dataclass(frozen=True)
class CrashSpec:
    """One trigger: crash at the ``occurrence``-th hit of ``site``.

    ``cut`` selects the torn-write flavour: instead of crashing *at* the
    site, the stable-store append underneath it persists only ``cut``
    bytes.  ``cut`` is clamped to the actual write size by the caller.
    """

    site: str
    occurrence: int
    cut: int | None = None

    def render(self) -> str:
        base = f"{self.site}@{self.occurrence}"
        return base if self.cut is None else f"{base}+{self.cut}B"

    @classmethod
    def parse(cls, text: str) -> "CrashSpec":
        cut: int | None = None
        if "+" in text:
            text, cut_text = text.rsplit("+", 1)
            if not cut_text.endswith("B"):
                raise ValueError(f"bad cut suffix in crash spec {text!r}")
            cut = int(cut_text[:-1])
        site, _, occurrence = text.rpartition("@")
        if not site:
            raise ValueError(f"crash spec {text!r} missing '@occurrence'")
        return cls(site, int(occurrence), cut)


@dataclass(frozen=True)
class SiteHit:
    """One journaled site crossing (record mode)."""

    site: str
    occurrence: int
    nbytes: int | None = None  # flush sites record the write size


@dataclass
class FaultPlane:
    """Deterministic crash-site counter / trigger (see module docs)."""

    specs: tuple[CrashSpec, ...] = ()
    record: bool = False
    _counts: dict[str, int] = field(default_factory=dict)
    journal: list[SiteHit] = field(default_factory=list)
    fired: list[CrashSpec] = field(default_factory=list)
    _runtime: object = None

    def __post_init__(self) -> None:
        #: Armed specs that have not fired yet, in arming order.
        self._pending = list(self.specs)

    def bind(self, runtime) -> None:
        """Attach the runtime so crash signals can name their process."""
        self._runtime = runtime

    # ------------------------------------------------------------------
    def _bump(self, site: str, nbytes: int | None = None) -> int:
        count = self._counts.get(site, 0) + 1
        self._counts[site] = count
        if self.record:
            self.journal.append(SiteHit(site, count, nbytes))
        return count

    def _take(self, site: str, count: int, torn: bool) -> CrashSpec | None:
        """Fire the pending spec armed at this crossing, if any.

        Any pending spec may match, not only the first: specs armed on
        different processes fire in whichever order execution reaches
        them.  A composite's second spec still cannot fire early — its
        occurrence was journaled on a run where the first had fired."""
        for spec in self._pending:
            if (
                spec.occurrence == count
                and spec.site == site
                and (spec.cut is not None) is torn
            ):
                self._pending.remove(spec)
                self.fired.append(spec)
                return spec
        return None

    def _resolve_process(self, process_name: str | None):
        """Find the live process behind a site's process name.  Sites
        inside the log manager use its machine-qualified name
        (``<machine>-<process>``); runtime-level sites use the bare
        process name — match either."""
        if process_name is None or self._runtime is None:
            return None
        for process in self._runtime.processes():
            if process.name == process_name:
                return process
            if any(
                stream.log.process_name == process_name
                for stream in process.streams
            ):
                # Stream 0 is the machine-qualified log; under sharded
                # logging each extra stream's name (``…@shard``) is its
                # own fault-site namespace.
                return process
        return None

    # ------------------------------------------------------------------
    def hit(
        self, site: str, process_name: str | None = None, process=None
    ) -> None:
        """Cross a plain crash site; raises CrashSignal when armed.
        ``process`` is the live process to crash, when the caller holds
        it; otherwise it is resolved from ``process_name``."""
        spec = self._take(site, self._bump(site), torn=False)
        if spec is not None:
            if process is None:
                process = self._resolve_process(process_name)
            raise CrashSignal(
                process_name or "<queued>", spec.render(), process=process
            )

    def flush_cut(
        self, site: str, nbytes: int, process_name: str | None = None
    ) -> int | None:
        """Cross a stable-store flush of ``nbytes``.

        Returns the byte cut to tear the write at when an armed
        torn-write spec matches, else ``None``.  The caller arms the
        stable file, performs the append, and converts the resulting
        :class:`~repro.errors.PartialWriteError` via
        :meth:`torn_signal`.
        """
        spec = self._take(site, self._bump(site, nbytes), torn=True)
        if spec is None:
            return None
        # A cut of nbytes or more would be a complete write; keep the
        # tear strictly inside the payload.
        return max(1, min(spec.cut, nbytes - 1)) if nbytes > 1 else 0

    def torn_signal(self, site: str, process_name: str | None = None):
        """Build the crash signal that follows a torn flush."""
        spec = self.fired[-1] if self.fired else CrashSpec(site, 0, 0)
        return CrashSignal(
            process_name or "<queued>", spec.render(),
            process=self._resolve_process(process_name),
        )

    @property
    def exhausted(self) -> bool:
        """True when every armed spec has fired."""
        return not self._pending


# ----------------------------------------------------------------------
# module-global installation
# ----------------------------------------------------------------------
_PLANE: FaultPlane | None = None


def install_plane(plane: FaultPlane) -> FaultPlane:
    global _PLANE
    _PLANE = plane
    return plane


def uninstall_plane() -> None:
    global _PLANE
    _PLANE = None


def active_plane() -> FaultPlane | None:
    return _PLANE


@contextmanager
def installed(plane: FaultPlane) -> Iterator[FaultPlane]:
    install_plane(plane)
    try:
        yield plane
    finally:
        uninstall_plane()


def site_hit(site: str, process_name: str | None = None) -> None:
    """Instrumentation hook: no-op unless a plane is installed."""
    if _PLANE is not None:
        _PLANE.hit(site, process_name)


def flush_cut(
    site: str, nbytes: int, process_name: str | None = None
) -> int | None:
    """Instrumentation hook for stable flush sites; see
    :meth:`FaultPlane.flush_cut`."""
    if _PLANE is not None:
        return _PLANE.flush_cut(site, nbytes, process_name)
    return None


def torn_signal(site: str, process_name: str | None = None):
    """The crash signal following a torn flush, or ``None`` when no
    plane is installed (direct use of ``arm_partial_write`` in tests)."""
    if _PLANE is None:
        return None
    return _PLANE.torn_signal(site, process_name)


def arm(runtime, process, point: str, occurrence: int = 1) -> CrashSpec:
    """Crash ``process`` (an AppProcess or its name) the
    ``occurrence``-th time it crosses pipeline ``point`` from now on.

    Installs a plane bound to ``runtime`` unless one is installed;
    :func:`uninstall_plane` disarms everything."""
    if point not in PIPELINE_POINTS:
        raise ConfigurationError(
            f"unknown crash point {point!r}; known points: "
            f"{sorted(PIPELINE_POINTS)}"
        )
    if occurrence < 1:
        raise ConfigurationError("occurrence must be >= 1")
    plane = _PLANE
    if plane is None:
        plane = install_plane(FaultPlane())
        plane.bind(runtime)
    name = process if isinstance(process, str) else process.name
    site = f"{point}:{name}"
    spec = CrashSpec(site, plane._counts.get(site, 0) + occurrence)
    plane._pending.append(spec)
    return spec
