"""The hybrid cache's shared memory layout (paper §3.3, Figure 5).

When the file system is mounted, a contiguous DMA-accessible region is
reserved in host memory and its address/length are handed to the DPU.  The
region holds:

* a **cache header**: ``pagesize``, ``mode`` (0 = read cache, 1 = write
  cache), ``total`` page count, ``free`` page count — plus bucket geometry;
* the **meta area**: one 32-byte cache entry per page, organised as a hash
  table of buckets whose entries are linked by the ``next`` field.  Each
  entry records ``lock`` (0 none / 1 write / 2 read / 3 invalid), ``status``
  (0 free / 1 clean / 2 dirty / 3 invalid), a seqlock ``gen`` counter
  (odd while a writer is mutating the entry; see DESIGN.md §9), ``lpn``
  and ``inode``;
* the **data area**: the cache pages, positionally paired with entries
  ("finding the position of the cache entry is equivalent to locating the
  cache page").

Host code addresses the region directly; the DPU control plane reaches it
only through DMA and PCIe atomics.  Everything here is pure layout — no
timing, so it is unit-testable in isolation.
"""

from __future__ import annotations

from ..sim.core import Event
from ..sim.memory import MemoryArena

__all__ = [
    "CacheLayout",
    "LOCK_FREE",
    "LOCK_WRITE",
    "LOCK_READ",
    "LOCK_INVALID",
    "ST_FREE",
    "ST_CLEAN",
    "ST_DIRTY",
    "ST_INVALID",
    "ENTRY_SIZE",
    "NIL",
]

# lock field values (paper Figure 5)
LOCK_FREE = 0
LOCK_WRITE = 1
LOCK_READ = 2
LOCK_INVALID = 3
# status field values
ST_FREE = 0
ST_CLEAN = 1
ST_DIRTY = 2
ST_INVALID = 3

ENTRY_SIZE = 32
HEADER_SIZE = 32
NIL = 0xFFFFFFFF

# entry field offsets
_OFF_LOCK = 0
_OFF_STATUS = 4
_OFF_NEXT = 8
_OFF_GEN = 12
_OFF_LPN = 16
_OFF_INODE = 24

# header field offsets
_H_PAGESIZE = 0
_H_MODE = 4
_H_TOTAL = 8
_H_FREE = 12
_H_BUCKETS = 16
_H_EPB = 20


class CacheLayout:
    """Address calculator + typed accessors over the cache region."""

    def __init__(
        self,
        arena: MemoryArena,
        pages: int,
        page_size: int = 4096,
        buckets: int = 256,
        mode: int = 1,
    ):
        if pages < 1 or buckets < 1:
            raise ValueError("pages and buckets must be >= 1")
        if pages % buckets:
            raise ValueError("pages must be a multiple of buckets")
        self.arena = arena
        self.pages = pages
        self.page_size = page_size
        self.buckets = buckets
        self.entries_per_bucket = pages // buckets
        size = HEADER_SIZE + pages * ENTRY_SIZE + pages * page_size
        self.base = arena.alloc(size, align=page_size)
        self.size = size
        self.meta_base = self.base + HEADER_SIZE
        self.data_base = self.meta_base + pages * ENTRY_SIZE
        #: host-side atomic RMWs on shared lock/count words (the cachelines
        #: are co-owned with DPU PCIe AtomicOps, so each one pays cross-PCIe
        #: coordination — the cost the seqlock read path elides)
        self.host_atomics = 0
        #: wait queues of I/O-pending entries (Linux's page wait table):
        #: entry index -> the one event its readers sleep on until the claim is
        #: installed or given back.  Host bookkeeping, outside the region.
        self.pending_waiters: dict[int, Event] = {}
        self._init_region(mode)

    def _init_region(self, mode: int) -> None:
        a = self.arena
        a.write_u32(self.base + _H_PAGESIZE, self.page_size)
        a.write_u32(self.base + _H_MODE, mode)
        a.write_u32(self.base + _H_TOTAL, self.pages)
        a.write_u32(self.base + _H_FREE, self.pages)
        a.write_u32(self.base + _H_BUCKETS, self.buckets)
        a.write_u32(self.base + _H_EPB, self.entries_per_bucket)
        # Chain each bucket's entries via `next`; terminate with NIL.
        for b in range(self.buckets):
            first = b * self.entries_per_bucket
            for j in range(self.entries_per_bucket):
                i = first + j
                addr = self.entry_addr(i)
                a.write_u32(addr + _OFF_LOCK, LOCK_FREE)
                a.write_u32(addr + _OFF_STATUS, ST_FREE)
                a.write_u32(addr + _OFF_GEN, 0)
                nxt = i + 1 if j + 1 < self.entries_per_bucket else NIL
                a.write_u32(addr + _OFF_NEXT, nxt)
                a.write_u64(addr + _OFF_LPN, 0)
                a.write_u64(addr + _OFF_INODE, 0)

    # -- addresses --------------------------------------------------------------
    def entry_addr(self, index: int) -> int:
        if not 0 <= index < self.pages:
            raise IndexError(f"entry index {index} out of range")
        return self.meta_base + index * ENTRY_SIZE

    def lock_addr(self, index: int) -> int:
        return self.entry_addr(index) + _OFF_LOCK

    def gen_addr(self, index: int) -> int:
        return self.entry_addr(index) + _OFF_GEN

    def page_addr(self, index: int) -> int:
        if not 0 <= index < self.pages:
            raise IndexError(f"page index {index} out of range")
        return self.data_base + index * self.page_size

    def bucket_of(self, inode: int, lpn: int) -> int:
        """Deterministic <inode, lpn> -> bucket hash (Fibonacci mixing)."""
        h = (inode * 0x9E3779B97F4A7C15 + lpn * 0xC2B2AE3D27D4EB4F) & 0xFFFFFFFFFFFFFFFF
        return (h >> 17) % self.buckets

    def bucket_head(self, bucket: int) -> int:
        return bucket * self.entries_per_bucket

    # -- header accessors (host-side; DPU uses DMA/atomics on same addresses) ---
    @property
    def free_count_addr(self) -> int:
        return self.base + _H_FREE

    def free_count(self) -> int:
        return self.arena.read_u32(self.free_count_addr)

    def header(self) -> dict:
        a = self.arena
        return {
            "pagesize": a.read_u32(self.base + _H_PAGESIZE),
            "mode": a.read_u32(self.base + _H_MODE),
            "total": a.read_u32(self.base + _H_TOTAL),
            "free": a.read_u32(self.base + _H_FREE),
            "buckets": a.read_u32(self.base + _H_BUCKETS),
            "entries_per_bucket": a.read_u32(self.base + _H_EPB),
        }

    # -- entry accessors (host-side direct view) ---------------------------------
    def read_entry(self, index: int) -> dict:
        a = self.arena
        addr = self.entry_addr(index)
        return {
            "lock": a.read_u32(addr + _OFF_LOCK),
            "status": a.read_u32(addr + _OFF_STATUS),
            "next": a.read_u32(addr + _OFF_NEXT),
            "gen": a.read_u32(addr + _OFF_GEN),
            "lpn": a.read_u64(addr + _OFF_LPN),
            "inode": a.read_u64(addr + _OFF_INODE),
        }

    # -- seqlock generation word (paper-era pad word at offset 12) ---------------
    def entry_gen(self, index: int) -> int:
        return self.arena.read_u32(self.gen_addr(index))

    def set_entry_gen(self, index: int, value: int) -> None:
        self.arena.write_u32(self.gen_addr(index), value & 0xFFFFFFFF)

    def gen_begin_write(self, index: int) -> int:
        """Writer-side seqlock entry: make ``gen`` odd (mutation in flight).

        Must be called with the entry's lock word held.  Returns the new
        odd value.
        """
        g = (self.entry_gen(index) + 1) | 1
        self.set_entry_gen(index, g)
        return g

    def gen_end_write(self, index: int) -> None:
        """Writer-side seqlock exit: bump ``gen`` to the next even value."""
        self.set_entry_gen(index, (self.entry_gen(index) | 1) + 1)

    def entry_status(self, index: int) -> int:
        return self.arena.read_u32(self.entry_addr(index) + _OFF_STATUS)

    def set_entry_status(self, index: int, status: int) -> None:
        self.arena.write_u32(self.entry_addr(index) + _OFF_STATUS, status)

    def entry_key(self, index: int) -> tuple[int, int]:
        addr = self.entry_addr(index)
        return self.arena.read_u64(addr + _OFF_INODE), self.arena.read_u64(addr + _OFF_LPN)

    def set_entry_key(self, index: int, inode: int, lpn: int) -> None:
        addr = self.entry_addr(index)
        self.arena.write_u64(addr + _OFF_INODE, inode)
        self.arena.write_u64(addr + _OFF_LPN, lpn)

    def entry_next(self, index: int) -> int:
        return self.arena.read_u32(self.entry_addr(index) + _OFF_NEXT)

    def chain(self, bucket: int):
        """Iterate entry indexes of a bucket's chain."""
        i = self.bucket_head(bucket)
        while i != NIL:
            yield i
            i = self.entry_next(i)

    def wake_pending(self, index: int) -> None:
        """Wake the readers sleeping on a pending entry (they look again)."""
        waiters = self.pending_waiters.pop(index, None)
        if waiters is not None:
            waiters.succeed()

    # -- page data (host-side direct view) -----------------------------------------
    def read_page(self, index: int, length: int | None = None) -> bytes:
        n = self.page_size if length is None else min(length, self.page_size)
        return self.arena.read(self.page_addr(index), n)

    def write_page(self, index: int, data: bytes) -> None:
        if len(data) > self.page_size:
            raise ValueError("data exceeds page size")
        self.arena.write(self.page_addr(index), data)

    # -- host-side atomics on lock words ----------------------------------------
    def try_lock(self, index: int, kind: int) -> bool:
        """CAS the lock word free -> kind (host-side lock-prefixed RMW)."""
        self.host_atomics += 1
        return self.arena.cas_u32(self.lock_addr(index), LOCK_FREE, kind)

    def unlock(self, index: int, kind: int) -> bool:
        """CAS the lock word kind -> free."""
        self.host_atomics += 1
        return self.arena.cas_u32(self.lock_addr(index), kind, LOCK_FREE)

    def adjust_free(self, delta: int) -> None:
        self.host_atomics += 1
        self.arena.faa_u32(self.free_count_addr, delta & 0xFFFFFFFF)
