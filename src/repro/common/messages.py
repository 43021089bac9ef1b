"""The four message kinds of paper Figure 1.

A component sees: (1) an incoming method call, (2) its reply to that
call, (3) an outgoing method call it makes while serving, and (4) the
reply from that outgoing call.  Messages 1 and 3 are
:class:`MethodCallMessage`; messages 2 and 4 are :class:`ReplyMessage` —
which of the four roles a message plays depends on which side of the
context boundary the interceptor sees it (paper Section 2.3).

Messages optionally carry a :class:`SenderInfo` attachment describing the
sender's component type (paper Section 3.4), which is how interceptors
learn remote component types.  Section 5.2.3's optimization is modelled
by ``knows_receiver``: when a caller already knows the server's type it
says so, and the server omits the attachment in its reply.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .ids import GlobalCallId
from .types import ComponentType


class MessageKind(enum.Enum):
    """Which of Figure 1's four arrows a message is."""

    INCOMING_CALL = 1  # message 1: incoming method call
    REPLY_TO_INCOMING = 2  # message 2: reply to the incoming call
    OUTGOING_CALL = 3  # message 3: outgoing method call
    REPLY_FROM_OUTGOING = 4  # message 4: reply from the outgoing call


@dataclass(frozen=True)
class SenderInfo:
    """Attachment describing the sending (parent) component."""

    component_type: ComponentType
    component_uri: str
    # True when the sender already knows the receiver's type, letting the
    # receiver omit its own attachment in the reply (Section 5.2.3).
    knows_receiver: bool = False


@dataclass(frozen=True)
class MethodCallMessage:
    """A method-call message (message 1 or 3).

    ``call_id`` is ``None`` for calls from external components — the
    paper detects external callers exactly by the absence of the ID.
    ``method_read_only`` marks calls to methods declared with the
    read-only attribute (Section 3.3); the flag rides on the message so
    the server interceptor can choose Algorithm 5 without re-resolving
    the method.
    """

    target_uri: str
    method: str
    args: tuple = ()
    kwargs: tuple = ()  # sorted (name, value) pairs, hashable & stable
    call_id: GlobalCallId | None = None
    sender: SenderInfo | None = None
    method_read_only: bool = False

    #: the message's wire encoding, once computed (not a field; see
    #: ``repro.log.serialization.message_encoding``)
    _encoding = None

    @staticmethod
    def pack_kwargs(kwargs: dict) -> tuple:
        return tuple(sorted(kwargs.items()))


@dataclass(frozen=True)
class ReplyMessage:
    """A reply message (message 2 or 4).

    Application exceptions are carried as data (``is_exception``) so the
    caller can re-raise them; they do not indicate component failure
    (paper Section 2.4).  ``method_read_only`` reports whether the
    invoked method carried the read-only attribute, letting the caller's
    interceptor learn it for future calls (Sections 3.3 and 3.4).
    """

    call_id: GlobalCallId | None
    value: object = None
    is_exception: bool = False
    exception_message: str = ""
    sender: SenderInfo | None = None
    method_read_only: bool = False

    #: the message's wire encoding, once computed (not a field; see
    #: ``repro.log.serialization.message_encoding``)
    _encoding = None
