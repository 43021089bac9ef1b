"""Reference swizzling.

Component references appear in two serialized places:

* **method arguments and return values** — proxies become
  :class:`ComponentRef` on the wire and are resolved back to proxies on
  delivery;
* **checkpointed fields** (paper Section 4.2) — "for a remote component
  reference, we save the component URI; for a local component reference
  (to a component in the same context), we store the component ID.  When
  restoring a pointer field, we re-obtain the pointer using the saved
  URI or component ID."

Swizzling is a deep structural transform over the supported container
types; anything else passes through untouched for the codec to accept or
reject.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from ..common.ids import ComponentRef, LocalRef
from ..errors import SerializationError
from .component import PersistentComponent, SubordinateHandle
from .proxy import ComponentProxy

if TYPE_CHECKING:  # pragma: no cover
    from .context import Context


def _transform(value: object, leaf: Callable[[object], object]) -> object:
    mapped = leaf(value)
    if mapped is not value:
        return mapped
    if isinstance(value, list):
        return [_transform(item, leaf) for item in value]
    if isinstance(value, tuple):
        return tuple(_transform(item, leaf) for item in value)
    if isinstance(value, dict):
        return {
            _transform(key, leaf): _transform(item, leaf)
            for key, item in value.items()
        }
    if isinstance(value, set):
        return {_transform(item, leaf) for item in value}
    if isinstance(value, frozenset):
        return frozenset(_transform(item, leaf) for item in value)
    return value


#: Types whose values are deeply immutable and hold no reference.
_PLAIN = frozenset({str, int, float, bool, type(None), bytes})


def _is_plain(value: object) -> bool:
    """A plain scalar, or a tuple of them: nothing to swizzle and
    nothing a caller could mutate later, so it may go out as is."""
    kind = type(value)
    if kind is tuple:
        for item in value:
            if type(item) not in _PLAIN:
                return False
        return True
    return kind in _PLAIN


# ----------------------------------------------------------------------
# messages
# ----------------------------------------------------------------------
def swizzle_for_message(value: object) -> object:
    """Prepare a value for the wire: proxies become ComponentRefs.

    Anything that is not plain is copied, so a message never shares a
    mutable container with the caller that built it."""
    if _is_plain(value):
        return value

    def leaf(item: object) -> object:
        if isinstance(item, ComponentProxy):
            return ComponentRef(item.uri)
        if isinstance(item, (PersistentComponent, SubordinateHandle)):
            raise SerializationError(
                "raw component instances and subordinate handles cannot "
                "cross a context boundary; pass a proxy "
                "(component.self_reference()) instead"
            )
        return item

    return _transform(value, leaf)


def unswizzle_for_message(value: object, runtime: Any) -> object:
    """Resolve ComponentRefs in a delivered value back to proxies."""
    if _is_plain(value):
        return value

    def leaf(item: object) -> object:
        if isinstance(item, ComponentRef):
            return runtime.proxy_for(item.uri)
        return item

    return _transform(value, leaf)


# ----------------------------------------------------------------------
# checkpointed fields (Section 4.2)
# ----------------------------------------------------------------------
def swizzle_for_state(value: object, context: "Context") -> object:
    """Prepare a component field for a context state record."""

    def leaf(item: object) -> object:
        if isinstance(item, ComponentProxy):
            return ComponentRef(item.uri)
        if isinstance(item, SubordinateHandle):
            return LocalRef(item.component_lid)
        if isinstance(item, PersistentComponent):
            lid = item._phoenix_lid
            if item._phoenix_context is context:
                return LocalRef(lid)
            raise SerializationError(
                f"field holds a raw component {type(item).__name__}#{lid} "
                "from another context; hold a proxy instead"
            )
        return item

    return _transform(value, leaf)


def unswizzle_for_state(value: object, context: "Context") -> object:
    """Resolve saved references while restoring a context state record."""

    def leaf(item: object) -> object:
        if isinstance(item, ComponentRef):
            return context.runtime.proxy_for(item.uri)
        if isinstance(item, LocalRef):
            lid = item.component_lid
            if context.parent is not None and (
                context.parent._phoenix_lid == lid
            ):
                return context.parent
            component = context.subordinates.get(lid)
            if component is None:
                raise SerializationError(
                    f"state record references unknown local component "
                    f"{lid} in context {context.uri}"
                )
            return SubordinateHandle(component)
        return item

    return _transform(value, leaf)
