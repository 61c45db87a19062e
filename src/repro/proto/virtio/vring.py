"""The split virtqueue (descriptor table, avail ring, used ring).

Byte-exact virtio 1.x split-ring layout, resident in host memory:

* descriptor table: ``qsz`` x 16 bytes — ``addr:u64 len:u32 flags:u16 next:u16``
* avail ring:  ``flags:u16 idx:u16 ring[qsz]:u16``
* used ring:   ``flags:u16 idx:u16 ring[qsz]:(id:u32 len:u32)``

The host builds descriptor chains and publishes their heads in the avail
ring; the device walks them with DMA reads — the Figure 2(b) sequence the
paper counts 11 DMA operations for — and publishes completions in the used
ring.  Long chains use VIRTQ_DESC_F_INDIRECT, fetching a whole descriptor
table in one extra DMA (how real virtio-fs keeps large I/O viable).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ...sim.core import Environment
from ...sim.memory import MemoryArena
from ...sim.resources import Resource, Store

__all__ = ["VRing", "Descriptor", "VRING_DESC_F_NEXT", "VRING_DESC_F_WRITE", "VRING_DESC_F_INDIRECT"]

VRING_DESC_F_NEXT = 1
VRING_DESC_F_WRITE = 2
VRING_DESC_F_INDIRECT = 4

_DESC = struct.Struct("<QIHH")
DESC_SIZE = _DESC.size  # 16


@dataclass(frozen=True)
class Descriptor:
    """One descriptor-table entry."""

    addr: int
    len: int
    flags: int = 0
    next: int = 0

    def pack(self) -> bytes:
        return _DESC.pack(self.addr, self.len, self.flags, self.next)

    @classmethod
    def unpack(cls, raw: bytes) -> "Descriptor":
        return cls(*_DESC.unpack(raw[:DESC_SIZE]))

    @property
    def has_next(self) -> bool:
        return bool(self.flags & VRING_DESC_F_NEXT)

    @property
    def device_writable(self) -> bool:
        return bool(self.flags & VRING_DESC_F_WRITE)

    @property
    def indirect(self) -> bool:
        return bool(self.flags & VRING_DESC_F_INDIRECT)


class VRing:
    """A split virtqueue allocated in host memory."""

    def __init__(self, env: Environment, arena: MemoryArena, size: int):
        if size < 1:
            raise ValueError("ring size must be >= 1")
        self.env = env
        self.arena = arena
        self.size = size
        self.desc_base = arena.alloc(size * DESC_SIZE, align=16)
        self.avail_base = arena.alloc(4 + 2 * size, align=2)
        self.used_base = arena.alloc(4 + 8 * size, align=4)
        #: free descriptor-table slots (host side)
        self._free_desc = list(range(size))
        #: limits in-flight chains
        self.slots = Resource(env, size)
        #: host -> device kick notifications
        self.kick: Store = Store(env)
        #: device -> host used-buffer notifications
        self.used_irq: Store = Store(env)
        # Host cursors.
        self.host_avail_idx = 0  # next avail slot the host will fill
        self.host_used_seen = 0  # used entries already consumed
        # Device cursors.
        self.last_avail_idx = 0
        self.dpu_used_idx = 0

    # ------------------------------------------------------------- addresses
    def desc_addr(self, i: int) -> int:
        return self.desc_base + i * DESC_SIZE

    @property
    def avail_idx_addr(self) -> int:
        return self.avail_base + 2

    def avail_ring_addr(self, i: int) -> int:
        return self.avail_base + 4 + 2 * (i % self.size)

    @property
    def used_idx_addr(self) -> int:
        return self.used_base + 2

    def used_ring_addr(self, i: int) -> int:
        return self.used_base + 4 + 8 * (i % self.size)

    # ------------------------------------------------------------- host side
    def alloc_descs(self, n: int) -> list[int]:
        if n > len(self._free_desc):
            raise RuntimeError("descriptor table exhausted")
        out = [self._free_desc.pop() for _ in range(n)]
        return out

    def free_descs(self, ids: list[int]) -> None:
        self._free_desc.extend(ids)

    def write_desc(self, index: int, desc: Descriptor) -> None:
        self.arena.write(self.desc_addr(index), desc.pack())

    def publish(self, head: int) -> None:
        """Host: put a chain head into the avail ring and bump idx."""
        self.arena.write_u16(self.avail_ring_addr(self.host_avail_idx), head)
        self.host_avail_idx = (self.host_avail_idx + 1) & 0xFFFF
        self.arena.write_u16(self.avail_idx_addr, self.host_avail_idx)
