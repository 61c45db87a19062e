"""Byte-addressable simulated host memory.

The hybrid cache, the nvme-fs submission/completion rings, the virtio-fs
descriptor/avail/used rings, and all PRP data buffers live inside a single
:class:`MemoryArena`.  Host-side code touches the arena directly (host memory
accesses are treated as free at the microsecond timescale of the
experiments); DPU-side code must go through :class:`repro.sim.pcie.PcieLink`,
which charges DMA latency and counts transactions — that asymmetry is the
entire point of the paper's hybrid-cache and nvme-fs arguments.

The allocator is a first-fit free list with coalescing.  It is deliberately
simple; fragmentation behaviour is not part of any reproduced claim, but the
invariants (no overlap, free+alloc partitions the arena) are property-tested.
"""

from __future__ import annotations

import mmap
import struct
from typing import Iterator

__all__ = ["MemoryArena", "OutOfMemory"]


class OutOfMemory(MemoryError):
    """Arena cannot satisfy an allocation."""


class MemoryArena:
    """A contiguous simulated physical memory region."""

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError("arena size must be positive")
        self.size = size
        # anonymous mapping: zero pages are backed only once touched
        self.buf = mmap.mmap(-1, size)
        # Free list: sorted list of (start, length), non-adjacent, non-overlapping.
        self._free: list[tuple[int, int]] = [(0, size)]
        self._allocs: dict[int, int] = {}  # start -> length

    # -- allocation -----------------------------------------------------------
    def alloc(self, nbytes: int, align: int = 8) -> int:
        """First-fit allocate ``nbytes`` aligned to ``align``; returns address."""
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        if align < 1 or (align & (align - 1)):
            raise ValueError("alignment must be a power of two")
        for i, (start, length) in enumerate(self._free):
            aligned = (start + align - 1) & ~(align - 1)
            pad = aligned - start
            if length >= pad + nbytes:
                # Carve [aligned, aligned+nbytes) out of this free block.
                tail_start = aligned + nbytes
                tail_len = start + length - tail_start
                repl: list[tuple[int, int]] = []
                if pad:
                    repl.append((start, pad))
                if tail_len:
                    repl.append((tail_start, tail_len))
                self._free[i : i + 1] = repl
                self._allocs[aligned] = nbytes
                return aligned
        raise OutOfMemory(f"arena exhausted: need {nbytes}, free {self.free_bytes()}")

    def free(self, addr: int) -> None:
        """Release a previous allocation at ``addr``."""
        try:
            length = self._allocs.pop(addr)
        except KeyError:
            raise ValueError(f"free of unallocated address {addr:#x}")
        # Insert into sorted free list and coalesce neighbours.
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid][0] < addr:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, (addr, length))
        # Coalesce with next.
        if lo + 1 < len(self._free):
            s, l = self._free[lo]
            ns, nl = self._free[lo + 1]
            if s + l == ns:
                self._free[lo : lo + 2] = [(s, l + nl)]
        # Coalesce with previous.
        if lo > 0:
            ps, pl = self._free[lo - 1]
            s, l = self._free[lo]
            if ps + pl == s:
                self._free[lo - 1 : lo + 1] = [(ps, pl + l)]

    def free_bytes(self) -> int:
        return sum(l for _, l in self._free)

    def allocated_bytes(self) -> int:
        return sum(self._allocs.values())

    def allocations(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._allocs.items()))

    # -- raw access -------------------------------------------------------------
    def _check(self, addr: int, nbytes: int) -> None:
        if addr < 0 or addr + nbytes > self.size:
            raise IndexError(
                f"access [{addr:#x}, {addr + nbytes:#x}) outside arena of {self.size:#x}"
            )

    def read(self, addr: int, nbytes: int) -> bytes:
        self._check(addr, nbytes)
        return bytes(self.buf[addr : addr + nbytes])

    def write(self, addr: int, data: bytes) -> None:
        self._check(addr, len(data))
        self.buf[addr : addr + len(data)] = data

    def fill(self, addr: int, nbytes: int, value: int = 0) -> None:
        self._check(addr, nbytes)
        self.buf[addr : addr + nbytes] = bytes([value]) * nbytes

    # -- typed access (little-endian, matching NVMe/virtio wire formats) -------
    def read_u16(self, addr: int) -> int:
        self._check(addr, 2)
        return struct.unpack_from("<H", self.buf, addr)[0]

    def write_u16(self, addr: int, value: int) -> None:
        self._check(addr, 2)
        struct.pack_into("<H", self.buf, addr, value & 0xFFFF)

    def read_u32(self, addr: int) -> int:
        self._check(addr, 4)
        return struct.unpack_from("<I", self.buf, addr)[0]

    def write_u32(self, addr: int, value: int) -> None:
        self._check(addr, 4)
        struct.pack_into("<I", self.buf, addr, value & 0xFFFFFFFF)

    def read_u64(self, addr: int) -> int:
        self._check(addr, 8)
        return struct.unpack_from("<Q", self.buf, addr)[0]

    def write_u64(self, addr: int, value: int) -> None:
        self._check(addr, 8)
        struct.pack_into("<Q", self.buf, addr, value & 0xFFFFFFFFFFFFFFFF)

    # -- atomics (host-side view; PCIe-side atomics live in pcie.py) -----------
    def cas_u32(self, addr: int, expected: int, new: int) -> bool:
        """Compare-and-swap a 32-bit word; returns True on success."""
        cur = self.read_u32(addr)
        if cur == expected:
            self.write_u32(addr, new)
            return True
        return False

    def faa_u32(self, addr: int, delta: int) -> int:
        """Fetch-and-add a 32-bit word; returns the pre-add value."""
        cur = self.read_u32(addr)
        self.write_u32(addr, (cur + delta) & 0xFFFFFFFF)
        return cur
