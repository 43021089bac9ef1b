"""Per-process global tables (paper Table 1 and Section 4.1).

A process's incarnation (:class:`repro.core.process.Incarnation`) keeps
four tables outside all contexts:

* the **component table** — one entry per Phoenix/App component in the
  process;
* the **context table** — one entry per context, holding the LSN of the
  context's latest state record (the recovery-LSN analogue of ARIES);
* the **remote component table** — learned types of remote components
  (:mod:`repro.core.remote_types`);
* the **last call table** — duplicate detection
  (:mod:`repro.core.last_call`).

The first two live here as plain dataclass entries in dictionaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..common.types import ComponentType

if TYPE_CHECKING:  # pragma: no cover
    from .component import PersistentComponent
    from .context import Context

NO_LSN = -1


@dataclass
class ComponentTableEntry:
    """Paper Table 1: component ID, component type, object type, pointer
    to the object instance, and pointer to its context table entry."""

    component_lid: int
    component_type: ComponentType
    class_name: str
    instance: "PersistentComponent"
    context_id: int


@dataclass
class ContextTableEntry:
    """Paper Table 1: the components of the context, the (parent)
    component ID and URI, the LSN of the latest context state record,
    and the last outgoing method call ID of the context.

    Outgoing sequence numbers are tracked per component on the instances
    themselves (``_phoenix_next_seq``); this entry tracks the log
    anchors recovery needs."""

    context_id: int
    uri: str
    context_ref: "Context"
    component_lids: list[int] = field(default_factory=list)
    state_record_lsn: int = NO_LSN
    creation_lsn: int = NO_LSN

    @property
    def recovery_start_lsn(self) -> int:
        """Where replay for this context begins: the latest state record
        if one exists, else the creation record."""
        if self.state_record_lsn != NO_LSN:
            return self.state_record_lsn
        return self.creation_lsn
