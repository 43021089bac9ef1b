"""Component kinds.

The paper's taxonomy (Sections 2 and 3.2):

* **external** — unspecified components; Phoenix/App takes no actions and
  makes no guarantees for them.
* **persistent** — stateful; state recovered via redo of logged messages.
* **subordinate** — persistent, but placed in its parent's context and
  only callable from the parent and sibling subordinates; its calls cross
  no context boundary and are never intercepted or logged.
* **functional** — stateless and pure; may call only functional
  components; nothing is logged on either side of its calls.
* **read-only** — stateless but may *read* persistent components; its
  replies are not repeatable, so a persistent caller logs (without
  forcing) the reply message.

Two extra kinds model the native-.NET baseline rows of Table 4 — plain
remotable objects with no Phoenix/App involvement, with and without
message interceptors installed:

* **marshal_by_ref** — a plain ``MarshalByRefObject``.
* **context_bound** — a plain ``ContextBoundObject``.
"""

from __future__ import annotations

import enum


class ComponentType(enum.Enum):
    EXTERNAL = "external"
    PERSISTENT = "persistent"
    SUBORDINATE = "subordinate"
    FUNCTIONAL = "functional"
    READ_ONLY = "read_only"
    MARSHAL_BY_REF = "marshal_by_ref"
    CONTEXT_BOUND = "context_bound"

    @property
    def is_persistent_family(self) -> bool:
        """Does Phoenix/App recover this component's state?"""
        return self in (ComponentType.PERSISTENT, ComponentType.SUBORDINATE)

    @property
    def is_stateless(self) -> bool:
        """Stateless kinds need no recovery and keep no last-call entries."""
        return self in (ComponentType.FUNCTIONAL, ComponentType.READ_ONLY)

    @property
    def is_phoenix(self) -> bool:
        """Is this component managed by the Phoenix/App runtime at all?"""
        return self not in (
            ComponentType.EXTERNAL,
            ComponentType.MARSHAL_BY_REF,
            ComponentType.CONTEXT_BOUND,
        )

    @property
    def wire_value(self) -> str:
        return self.value

    @classmethod
    def from_wire(cls, value: str) -> "ComponentType":
        return cls(value)
