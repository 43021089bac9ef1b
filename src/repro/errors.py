"""Exception hierarchy for the Phoenix/App reproduction.

The paper distinguishes two classes of outgoing-call exceptions
(Section 2.4): *recognized* exceptions that indicate a component failure
(the interceptor waits and retries with the same method call ID), and
application errors that indicate a problem with the call itself while the
remote component remains alive (no retry).

Everything raised by this library derives from :class:`PhoenixError`.
"""

from __future__ import annotations


class PhoenixError(Exception):
    """Base class for all errors raised by the Phoenix/App runtime."""


class ConfigurationError(PhoenixError):
    """The runtime or a component was configured inconsistently."""


class DeploymentError(PhoenixError):
    """A component could not be created or placed in a context."""


class SerializationError(PhoenixError):
    """A value could not be marshalled into, or out of, a log record."""


class LogCorruptionError(PhoenixError):
    """A log record failed its integrity check (outside the torn tail)."""

    def __init__(self, message: str, lsn: int | None = None):
        super().__init__(message)
        self.lsn = lsn  # where the damage starts, when the raiser knows


class UnknownComponentClassError(PhoenixError):
    """Recovery found a creation record for an unregistered class."""


class ComponentUnavailableError(PhoenixError):
    """A *recognized* failure exception (paper Section 2.4).

    Raised when a method call targets a component whose hosting process or
    context has crashed.  Message interceptors treat this as a component
    failure: they wait and retry the call with the same method call ID
    (condition 4 of Section 2.2).
    """

    def __init__(self, uri: str, reason: str = "process crashed"):
        super().__init__(f"component {uri} unavailable: {reason}")
        self.uri = uri
        self.reason = reason


class RetriesExhaustedError(PhoenixError):
    """A persistent caller gave up retrying an outgoing call."""

    def __init__(self, uri: str, attempts: int):
        super().__init__(
            f"call to {uri} failed after {attempts} attempts"
        )
        self.uri = uri
        self.attempts = attempts


class ApplicationError(PhoenixError):
    """A non-failure exception raised by application code.

    The paper notes that not all exceptions indicate failures — e.g. an
    invalid-argument exception is an error, but the remote component is
    still alive.  These exceptions propagate to the caller without any
    retry and without marking the component failed.
    """

    def __init__(self, message: str, original_type: str = ""):
        super().__init__(message)
        self.original_type = original_type


class InvariantViolationError(PhoenixError):
    """An internal consistency check failed (a bug, not a user error)."""


class RecoveryError(PhoenixError):
    """Recovery could not restore a process or context from its log."""


class PartialWriteError(PhoenixError):
    """A stable-store append persisted only a prefix of its payload.

    Models the torn write of a crash that lands mid-``write``: the bytes
    up to the cut are durable, the rest never reached the platter.  Fault
    injection arms this one write at a time
    (:meth:`repro.sim.stable_store.StableFile.arm_partial_write`).
    """

    def __init__(self, name: str, persisted: int, requested: int):
        super().__init__(
            f"partial write to {name!r}: {persisted} of {requested} "
            "bytes persisted"
        )
        self.name = name
        self.persisted = persisted
        self.requested = requested


class CrashSignal(BaseException):
    """Internal control-flow signal raised at an injected crash point.

    Derives from :class:`BaseException` so application ``except Exception``
    handlers inside component methods cannot accidentally swallow a
    simulated crash.  It is translated into
    :class:`ComponentUnavailableError` at the context boundary of the
    crashed process and never escapes the runtime.

    ``process`` is the live process the boundary must crash (None when
    no process is known).  A ``stale`` signal is a ghost unwind: the
    crash already happened, so the boundary converts it without
    crashing the process again.
    """

    def __init__(
        self, process_name: str, point: str, process=None, stale: bool = False
    ):
        super().__init__(f"injected crash of {process_name} at {point}")
        self.process_name = process_name
        self.point = point
        self.process = process
        self.stale = stale
