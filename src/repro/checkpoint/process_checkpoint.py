"""Process checkpoints (paper Section 4.3).

A process checkpoint brackets an incremental dump of the process's
global tables between a begin and an end record:

* context-table entries (state-record LSNs — "akin to the recovery LSNs
  for pages in ARIES");
* the remote-component-type table;
* last-call table entries (IDs and reply LSNs only).

Tables are written in sub-ranges (the paper uses sub-range locks so
normal execution can proceed concurrently; the simulation is
synchronous, but the chunked record structure is preserved so recovery
reads exactly what a concurrent writer would have produced).

The checkpoint is *not* forced.  Once some later force flushes it, the
begin-checkpoint LSN is force-written to the process's well-known file;
recovery starts its first log pass there.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.tables import NO_LSN
from ..faults import plane as faultplane
from ..log.records import (
    BeginCheckpointRecord,
    CheckpointContextEntry,
    CheckpointContextTableRecord,
    CheckpointLastCallRecord,
    CheckpointRemoteTypeRecord,
    EndCheckpointRecord,
    LastCallEntrySnapshot,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..core.process import AppProcess

#: Sub-range size for incremental table dumps.
CHUNK = 16


def _chunks(items: list, size: int = CHUNK):
    for start in range(0, len(items), size):
        yield items[start:start + size]


def take_process_checkpoint(process: "AppProcess") -> tuple[int, int]:
    """Write a process checkpoint; returns (begin_lsn, end_lsn).

    The well-known file is updated lazily, once the checkpoint has been
    flushed by a later force (see ``AppProcess.set_pending_checkpoint``).
    """
    begin_lsn = process.log_append(BeginCheckpointRecord(context_id=-1))
    faultplane.site_hit(f"checkpoint.begin:{process.name}", process.name)

    incarnation = process.incarnation
    context_entries = [
        CheckpointContextEntry(
            context_id=entry.context_id,
            uri=entry.uri,
            state_record_lsn=entry.state_record_lsn,
            creation_lsn=entry.creation_lsn,
        )
        for entry in sorted(
            incarnation.context_table.values(), key=lambda e: e.context_id
        )
        if entry.creation_lsn != NO_LSN  # phoenix contexts only
    ]
    for chunk in _chunks(context_entries):
        process.log_append(
            CheckpointContextTableRecord(
                context_id=-1, entries=tuple(chunk)
            )
        )

    remote_entries = incarnation.remote_types.snapshot()
    for chunk in _chunks(remote_entries):
        process.log_append(
            CheckpointRemoteTypeRecord(context_id=-1, entries=tuple(chunk))
        )

    last_call_entries = [
        LastCallEntrySnapshot(
            caller_key=key,
            call_id=entry.call_id,
            reply_lsn=entry.reply_lsn,
        )
        for key, entry in sorted(incarnation.last_calls.all_entries())
        if not entry.in_progress
    ]
    for chunk in _chunks(last_call_entries):
        process.log_append(
            CheckpointLastCallRecord(context_id=-1, entries=tuple(chunk))
        )

    end_lsn = process.log_append(
        EndCheckpointRecord(context_id=-1, begin_lsn=begin_lsn)
    )
    faultplane.site_hit(f"checkpoint.end:{process.name}", process.name)
    process.set_pending_checkpoint(begin_lsn, end_lsn)
    return begin_lsn, end_lsn
