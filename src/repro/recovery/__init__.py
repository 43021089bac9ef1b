"""The per-machine recovery service and recovery."""

from .recovery_manager import RecoveryManager, recover_context
from .recovery_service import RecoveryService

__all__ = [
    "RecoveryManager",
    "recover_context",
    "RecoveryService",
]
