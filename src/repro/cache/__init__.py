"""The hybrid file data cache (paper §3.3).

Control plane on the DPU (:class:`CacheControlPlane`), data plane in host
memory (:class:`HostCachePlane`), sharing one :class:`CacheLayout` region
guarded by PCIe-atomic read/write locks.
"""

from .control import CacheControlPlane
from .hostplane import CacheStats, HostCachePlane
from .layout import (
    CacheLayout,
    LOCK_FREE,
    LOCK_READ,
    LOCK_WRITE,
    ST_CLEAN,
    ST_DIRTY,
    ST_FREE,
    ST_INVALID,
)
from .policies import AdaptiveReadahead, ClockPolicy

__all__ = [
    "CacheControlPlane",
    "CacheStats",
    "HostCachePlane",
    "CacheLayout",
    "LOCK_FREE",
    "LOCK_READ",
    "LOCK_WRITE",
    "ST_CLEAN",
    "ST_DIRTY",
    "ST_FREE",
    "ST_INVALID",
    "AdaptiveReadahead",
    "ClockPolicy",
]
