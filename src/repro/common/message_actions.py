"""The message-action table — the paper's Algorithms 1 through 5, once.

What a context does with each of Figure 1's four messages is a function
of (optimized?, context type, message kind, peer class): which log
record it writes — none, long (the whole message) or short (identity
only) — and whether the message *commits*, i.e. the log must be stable
through the commit point before the message goes any further.
:class:`~repro.core.policy.LoggingPolicy` executes this table;
:class:`~repro.analysis.infer.costmodel.CostModel` prices it.  (The
conformance oracle, ``repro.analysis.trace_check``, deliberately keeps
its own encoding and does not import this module.)

Two whole-row rules come first:

* **Algorithm 1** (baseline, Section 2.3) — not optimized: every
  message is a long record, forced (:data:`BASELINE`).
* **Algorithms 4/5, stateless side** (Sections 3.2.2–3.2.3) — a
  functional or read-only *context* logs nothing: it is never
  recovered (:data:`NOTHING`).

Otherwise the cell of :data:`TABLE` for the message (row) and the peer's
class (column; the client for messages 1–2, the server for 3–4):

* **Algorithm 2** (Section 3.1.1, the ``other`` column — a persistent
  peer, or an unknown one, which Section 3.4 treats as persistent): log
  receive messages (1 and 4) *without* forcing; write nothing for send
  messages (2 and 3) but make all previous records stable before they
  leave.
* **Algorithm 3** (Section 3.1.2, ``external``): force a long record for
  message 1 and a short record for message 2 — external failures cannot
  be fully masked, so log promptly and keep the window of vulnerability
  small.
* **Algorithm 4** (Section 3.2.2, ``functional`` server): nothing — the
  call is pure and replay re-creates its reply.
* **Algorithm 5** (Sections 3.2.3/3.3, ``read-only`` components and
  methods): nothing at the server; the caller logs (without forcing)
  only message 4, whose value replay cannot regenerate.

Section 3.5's multi-call rule is the one stateful exception and lives
with the executor: within one method execution a record-less committing
message 3 may skip its force (see ``LoggingPolicy``).

Rows, columns and record shapes are small ints so the per-message path
is two tuple indexings — no enum hashing.
"""

from __future__ import annotations

from typing import NamedTuple

from .messages import MessageKind
from .types import ComponentType

#: record shapes
NO_RECORD, LONG, SHORT = range(3)
RECORD_NAMES = ("none", "long", "short")

#: peer classes — the table's columns
OTHER, EXTERNAL, FUNCTIONAL, READ_ONLY = range(4)
PEER_CLASSES = ("other", "external", "functional", "read-only")

#: the table's rows, named by Figure 1's message numbers;
#: ``MESSAGES[row]`` is the row's message kind.  Messages 1-2 face the
#: client, 3-4 the server.
MSG1, MSG2, MSG3, MSG4 = range(4)
MESSAGES = tuple(MessageKind)


class Action(NamedTuple):
    """One cell: the record to append and whether the message commits."""

    record: int
    commits: bool


NOTHING = Action(NO_RECORD, False)
BASELINE = Action(LONG, True)
_LOG = Action(LONG, False)  # an unforced receive record
_COMMIT = Action(NO_RECORD, True)  # a record-less committing send

TABLE: tuple[tuple[Action, ...], ...] = (
    # other    external              functional  read-only
    (_LOG,     Action(LONG, True),   _LOG,       NOTHING),  # 1 incoming call
    (_COMMIT,  Action(SHORT, True),  _COMMIT,    NOTHING),  # 2 reply to it
    (_COMMIT,  _COMMIT,              NOTHING,    NOTHING),  # 3 outgoing call
    (_LOG,     _LOG,                 NOTHING,    _LOG),     # 4 reply from it
)


def client_class(
    client_type: ComponentType | None, read_only_call: bool
) -> int:
    """Column for messages 1–2.  A read-only method makes the whole call
    Algorithm 5's, whoever the client is."""
    if client_type is ComponentType.READ_ONLY or read_only_call:
        return READ_ONLY
    if client_type is ComponentType.EXTERNAL:
        return EXTERNAL
    if client_type is ComponentType.FUNCTIONAL:
        return FUNCTIONAL
    return OTHER


def server_class(
    server_type: ComponentType | None, read_only_call: bool
) -> int:
    """Column for messages 3–4.  A functional server is pure whatever
    attribute its method carries, so Algorithm 4 outranks Algorithm 5."""
    if server_type is ComponentType.FUNCTIONAL:
        return FUNCTIONAL
    if server_type is ComponentType.READ_ONLY or read_only_call:
        return READ_ONLY
    if server_type is ComponentType.EXTERNAL:
        return EXTERNAL
    return OTHER


def action_for(
    row: int,
    optimized: bool,
    read_only_opt: bool,
    context_type: ComponentType,
    peer_type: ComponentType | None,
    method_read_only: bool,
) -> Action:
    """What a ``context_type`` context does with message ``MESSAGES[row]``
    exchanged with a ``peer_type`` peer.  ``method_read_only`` (Section
    3.3) counts only while ``read_only_opt`` is on."""
    if not optimized:
        return BASELINE
    if context_type.is_stateless:
        return NOTHING
    classify = client_class if row < MSG3 else server_class
    return TABLE[row][classify(peer_type, method_read_only and read_only_opt)]

