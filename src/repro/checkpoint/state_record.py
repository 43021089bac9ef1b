"""Context state records (paper Section 4.2).

A context's state is saved only when the context is quiescent — after an
incoming call finishes and before the next is delivered — so component
state is exactly its field values.  Saving proceeds in two steps:

1. the replies of the context's last-call table entries that are not yet
   on the log are written as :class:`LastCallReplyRecord`s and their
   LSNs filled in (after restoring a state record, replay can no longer
   re-create replies of *earlier* incoming calls);
2. the component fields of the parent and every subordinate, plus the
   context metadata (outgoing-call counter, handled-call count, and the
   last-call entries with their reply LSNs), are combined into one
   :class:`ContextStateRecord` and appended — *not* forced; a later send
   message's force makes it stable for free.

Restoring applies the snapshots onto bare instances (no constructors)
and re-resolves reference fields.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..common.types import ComponentType
from ..core.component import PersistentComponent
from ..core.context import Context
from ..core.tables import NO_LSN
from ..errors import InvariantViolationError, RecoveryError
from ..log.records import (
    ComponentStateSnapshot,
    ContextStateRecord,
    LastCallEntrySnapshot,
    LastCallReplyRecord,
)
from .fields import capture_fields, restore_fields

if TYPE_CHECKING:  # pragma: no cover
    from ..core.process import AppProcess


def save_context_state(context: Context) -> int:
    """Write a context state record; returns its LSN."""
    if context.busy and context.current_call is not None:
        # The interceptor calls this after processing, before the reply
        # is sent — the component is quiescent even though the call
        # technically has not returned yet (paper Section 4.2).
        pass
    process = context.process
    incarnation = process.incarnation
    runtime = context.runtime
    if not context.component_type.is_persistent_family:
        raise InvariantViolationError(
            f"cannot checkpoint {context.component_type.value} context"
        )

    # Step 1: make the replies of this context's last calls durable.
    last_calls: list[LastCallEntrySnapshot] = []
    for entry in incarnation.last_calls.entries_for_context(
        context.context_id
    ):
        if entry.in_progress:
            current = context.current_call
            if current is not None and current.message is not None and (
                current.message.call_id == entry.call_id
            ):
                # The call being served right now; its reply is recorded
                # by the interceptor after this save returns.
                continue
            raise InvariantViolationError(
                f"last-call entry {entry.call_id} still in progress while "
                "saving context state"
            )
        if entry.reply_lsn == NO_LSN:
            if entry.reply is None:
                raise InvariantViolationError(
                    f"last-call entry {entry.call_id} has no reply to save"
                )
            entry.reply_lsn = process.log_append(
                LastCallReplyRecord(
                    context_id=context.context_id,
                    caller_key=entry.call_id.caller_key,
                    call_id=entry.call_id,
                    reply=entry.reply,
                )
            )
        last_calls.append(
            LastCallEntrySnapshot(
                caller_key=entry.call_id.caller_key,
                call_id=entry.call_id,
                reply_lsn=entry.reply_lsn,
            )
        )

    # Step 2: component fields + context metadata.
    snapshots = []
    for component in context.components():
        snapshots.append(
            ComponentStateSnapshot(
                component_lid=component._phoenix_lid,
                class_name=process.runtime.registry.name_of(type(component)),
                component_type=component._phoenix_type,
                fields=capture_fields(component, context),
                next_outgoing_seq=(
                    context.next_outgoing_seq
                    if component is context.parent
                    else 0
                ),
            )
        )
    record = ContextStateRecord(
        context_id=context.context_id,
        uri=context.uri,
        incoming_calls_handled=context.incoming_calls_handled,
        snapshots=tuple(snapshots),
        last_calls=tuple(sorted(last_calls, key=lambda e: e.caller_key)),
    )
    costs = runtime.costs
    runtime.clock.advance(
        costs.context_state_save
        + _extra_size_cost(
            record, costs.state_save_small_state_bytes,
            costs.state_save_per_extra_kb,
        )
    )
    lsn = process.log_append(record)
    incarnation.context_table[context.context_id].state_record_lsn = lsn
    return lsn


def _extra_size_cost(record, small_bytes: int, per_extra_kb: float) -> float:
    """States beyond the paper's small-state regime pay a serialization
    rate (the paper: 'for many components, the states could be
    substantially larger')."""
    from ..log.records import encode_record

    size = len(encode_record(record))
    if size <= small_bytes:
        return 0.0
    return (size - small_bytes) / 1024.0 * per_extra_kb


def restore_context_state(
    process: "AppProcess", context: Context, record: ContextStateRecord
) -> None:
    """Rebuild a context's components from a state record.

    Instances are allocated without running constructors; fields are
    applied afterwards, in two passes so local references between the
    parent and subordinates resolve regardless of order.
    """
    runtime = process.runtime
    costs = runtime.costs
    runtime.clock.advance(
        costs.state_record_restore
        + _extra_size_cost(
            record, costs.state_save_small_state_bytes,
            costs.state_restore_per_extra_kb,
        )
    )
    if not record.snapshots:
        raise RecoveryError(
            f"state record for context {record.context_id} has no snapshots"
        )

    # Pass A: allocate all instances and attach runtime fields.
    by_snapshot: list[tuple[ComponentStateSnapshot, PersistentComponent]] = []
    for snapshot in record.snapshots:
        cls = runtime.registry.lookup(snapshot.class_name)
        component = process._attach_instance(
            context, cls, snapshot.component_lid, snapshot.component_type
        )
        by_snapshot.append((snapshot, component))

    # Pass B: restore fields (local refs now resolve).
    for snapshot, component in by_snapshot:
        restore_fields(component, snapshot.fields, context)
        if component is context.parent:
            context.next_outgoing_seq = snapshot.next_outgoing_seq

    context.incoming_calls_handled = record.incoming_calls_handled
    context.restore_subordinate_counter()

    # Last-call entries recorded with the state: LSN-only — actual reply
    # messages are read lazily when a duplicate call needs them
    # (Section 4.4).
    for entry in record.last_calls:
        process.incarnation.last_calls.seed(
            entry.caller_key,
            entry.call_id,
            context.context_id,
            reply_lsn=entry.reply_lsn,
        )
