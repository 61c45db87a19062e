"""Host-side data plane of the hybrid cache.

The host reads and writes cache pages *directly in its own memory* — no PCIe
crossing on a hit, which is the design's whole point.  It only touches the
meta area with atomic lock operations, and notifies the DPU control plane
via fire-and-forget mailbox messages (standing in for posted nvme-fs control
commands) about misses (feeding the prefetcher) and dirty pages (feeding the
flusher), and with a blocking request when a bucket is full and needs
replacement (paper §3.3 "the host notifies the DPU to perform cache
replacement").

Read hits take a **seqlock fast path** (DESIGN.md §9): instead of a
lock/unlock atomic pair on the shared lock word — whose cacheline is
co-owned with the DPU's PCIe AtomicOps, making every host RMW pay
cross-PCIe coordination — the reader samples the entry's generation
counter, copies the page optimistically, and re-validates the counter.
Writers (host write hits, the DPU flusher/evictor install paths) bump the
generation under the existing lock, so a torn copy is always detected and
retried.  The uncontended hit performs **zero** atomics.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..obsv.tracer import NULL_TRACER
from ..params import SystemParams
from ..sim.core import Environment, Event
from ..sim.cpu import CpuPool
from ..sim.resources import Store
from .layout import (
    CacheLayout,
    LOCK_READ,
    LOCK_WRITE,
    ST_CLEAN,
    ST_DIRTY,
    ST_FREE,
    ST_INVALID,
)

__all__ = ["HostCachePlane", "CacheStats"]

#: host CPU cost of one hash + bucket walk
_LOOKUP_COST = 0.15e-6
#: back-off while an entry is locked: the control plane holds a page's lock
#: for a snapshot or a status change (a few PCIe round trips), never across
#: a backend round trip, so a short spin is the right wait
_LOCK_RETRY = 0.5e-6

#: sentinels for the seqlock attempt outcome
_FALLBACK = object()  # take the locked path
_RELOOKUP = object()  # entry changed identity: redo the bucket walk


class CacheStats:
    """Hit/miss counters for the experiments."""

    def __init__(self) -> None:
        self.read_hits = 0
        self.read_misses = 0
        self.write_hits = 0
        self.write_inserts = 0
        self.evict_waits = 0
        #: read hits served lock-free by the seqlock fast path
        self.seqlock_hits = 0
        #: optimistic copies discarded because the generation moved
        self.seqlock_retries = 0
        #: seqlock attempts that gave up and took the locked path
        self.seqlock_fallbacks = 0
        #: lock-word / free-count atomics issued by the read-hit path
        #: (attempted CASes count: a failed CAS still crosses the cacheline)
        self.read_atomics = 0
        #: LOCK_WRITE CASes the host write path lost to a held lock
        self.write_lock_retries = 0

    def hit_rate(self) -> float:
        total = self.read_hits + self.read_misses
        return self.read_hits / total if total else 0.0

    def atomics_per_hit(self) -> float:
        """Shared-cacheline atomics per read hit (0.0 on the seqlock path)."""
        return self.read_atomics / self.read_hits if self.read_hits else 0.0


class HostCachePlane:
    """Front-end read/write paths executed by host threads."""

    #: flight-recorder hook; builders replace this with a live tracer
    tracer = NULL_TRACER

    def __init__(
        self,
        env: Environment,
        layout: CacheLayout,
        host_cpu: CpuPool,
        params: SystemParams,
        ctrl_mailbox: Store,
    ):
        self.env = env
        self.layout = layout
        self.host_cpu = host_cpu
        self.params = params
        self.ctrl = ctrl_mailbox
        self.stats = CacheStats()
        self.seqlock_enabled = params.cache_seqlock

    # -- shared-cacheline atomic accounting --------------------------------------
    def _atomic(self, on_read_path: bool = False) -> Generator[Event, None, None]:
        """Charge one host atomic RMW on the shared meta region.

        Charged as inline busy time, not through the CpuPool: the caller is
        already running on a core and an atomic RMW does not deschedule it,
        so routing it through ``execute`` would add a spurious core handoff
        plus contention penalty per CAS.
        """
        if on_read_path:
            self.stats.read_atomics += 1
        if self.params.host_atomic_cost > 0:
            yield self.env.timeout(self.params.host_atomic_cost)

    # -- lookup helpers ----------------------------------------------------------
    def _find(self, inode: int, lpn: int) -> Optional[int]:
        """Walk the bucket chain for a live entry holding <inode, lpn>."""
        lay = self.layout
        for i in lay.chain(lay.bucket_of(inode, lpn)):
            if lay.entry_status(i) in (ST_CLEAN, ST_DIRTY) and lay.entry_key(i) == (inode, lpn):
                return i
        return None

    def _find_any(self, inode: int, lpn: int) -> Optional[int]:
        """Like :meth:`_find` but includes I/O-pending (readahead) entries."""
        lay = self.layout
        for i in lay.chain(lay.bucket_of(inode, lpn)):
            if lay.entry_status(i) in (ST_CLEAN, ST_DIRTY, ST_INVALID) and lay.entry_key(i) == (inode, lpn):
                return i
        return None

    def contains(self, inode: int, lpn: int) -> bool:
        return self._find(inode, lpn) is not None

    # -- front-end read (paper: "similar to the write process") ------------------
    def _read_seqlock(
        self, idx: int, inode: int, lpn: int, length: Optional[int]
    ) -> Generator[Event, None, object]:
        """Optimistic lock-free copy; returns the data, or a sentinel.

        Protocol: sample an even generation, copy the page, re-sample.  An
        odd sample means a writer is mid-mutation; a moved sample means the
        copy may be torn — both discard the copy.  Bounded retries, then
        the caller falls back to the locked path.
        """
        lay = self.layout
        for _ in range(max(1, self.params.seqlock_max_retries)):
            g1 = lay.entry_gen(idx)
            if g1 & 1:
                break  # writer in flight: the locked path will serialize
            if lay.entry_status(idx) not in (ST_CLEAN, ST_DIRTY) or lay.entry_key(idx) != (
                inode,
                lpn,
            ):
                return _RELOOKUP
            data = lay.read_page(idx, length)
            # The copy itself takes host CPU time; a writer may land inside
            # this window — that is exactly what the re-validation catches.
            yield from self.host_cpu.execute(
                self.params.host_copy_per_4k, tag="cache-host"
            )
            if lay.entry_gen(idx) == g1:
                self.stats.seqlock_hits += 1
                return data
            self.stats.seqlock_retries += 1
        self.stats.seqlock_fallbacks += 1
        return _FALLBACK

    def read(
        self, inode: int, lpn: int, length: Optional[int] = None
    ) -> Generator[Event, None, Optional[bytes]]:
        """Return the cached page, or None on a miss (caller goes to DPU)."""
        with self.tracer.span("cache.read", track="cache", lpn=lpn) as sp:
            page = yield from self._read_impl(inode, lpn, length)
            sp.set(hit=page is not None)
            return page

    def _read_impl(
        self, inode: int, lpn: int, length: Optional[int] = None
    ) -> Generator[Event, None, Optional[bytes]]:
        lay = self.layout
        yield from self.host_cpu.execute(_LOOKUP_COST, tag="cache-host")
        while True:
            idx = self._find_any(inode, lpn)
            if idx is not None and lay.entry_status(idx) == ST_INVALID:
                # Readahead in flight: block on the "locked page" like a page
                # cache does, instead of issuing a duplicate backend read.
                for _ in range(60):
                    yield self.env.timeout(8e-6)
                    if lay.entry_key(idx) != (inode, lpn):
                        idx = None
                        break
                    if lay.entry_status(idx) in (ST_CLEAN, ST_DIRTY):
                        break
                else:
                    idx = None
                if idx is not None and lay.entry_status(idx) == ST_INVALID:
                    idx = None
            if idx is None or lay.entry_status(idx) == ST_FREE:
                self.stats.read_misses += 1
                # Feed the prefetcher; fire-and-forget.
                self.ctrl.put(("miss", inode, lpn))
                return None
            if self.seqlock_enabled:
                result = yield from self._read_seqlock(idx, inode, lpn, length)
                if result is _RELOOKUP:
                    continue
                if result is not _FALLBACK:
                    self.stats.read_hits += 1
                    self.ctrl.put(("touch", inode, lpn, idx))
                    return result  # type: ignore[return-value]
            # Locked path: acquire the read lock; a writer or the flusher
            # may hold it briefly.
            lost = False
            while True:
                ok = lay.try_lock(idx, LOCK_READ)
                yield from self._atomic(on_read_path=True)
                if ok:
                    break
                yield self.env.timeout(_LOCK_RETRY)
                if lay.entry_status(idx) == ST_FREE or lay.entry_key(idx) != (inode, lpn):
                    lost = True  # evicted while we waited
                    break
            if lost:
                self.stats.read_misses += 1
                self.ctrl.put(("miss", inode, lpn))
                return None
            live = lay.entry_status(idx) in (ST_CLEAN, ST_DIRTY)
            data = lay.read_page(idx, length) if live else None
            lay.unlock(idx, LOCK_READ)
            yield from self._atomic(on_read_path=True)
            if not live:
                continue  # went I/O-pending or free under our feet
            yield from self.host_cpu.execute(self.params.host_copy_per_4k, tag="cache-host")
            self.stats.read_hits += 1
            self.ctrl.put(("touch", inode, lpn, idx))
            return data

    # -- front-end write (paper §3.3 Data Consistency) ---------------------------
    def write(self, inode: int, lpn: int, data: bytes) -> Generator[Event, None, None]:
        """Buffered write: land the page in the cache and mark it dirty."""
        with self.tracer.span("cache.write", track="cache", lpn=lpn):
            return (yield from self._write_impl(inode, lpn, data))

    def _write_impl(self, inode: int, lpn: int, data: bytes) -> Generator[Event, None, None]:
        lay = self.layout
        if len(data) > lay.page_size:
            raise ValueError("write exceeds cache page size")
        while True:
            yield from self.host_cpu.execute(_LOOKUP_COST, tag="cache-host")
            idx = self._find_any(inode, lpn)
            if idx is not None:
                # Update in place under the write lock (a pending readahead
                # entry is simply overwritten and dirtied; the prefetch
                # install notices and keeps our data).
                ok = lay.try_lock(idx, LOCK_WRITE)
                yield from self._atomic()
                if not ok:
                    self.stats.write_lock_retries += 1
                    yield self.env.timeout(_LOCK_RETRY)
                    continue
                if lay.entry_key(idx) != (inode, lpn) or lay.entry_status(idx) == ST_FREE:
                    lay.unlock(idx, LOCK_WRITE)
                    yield from self._atomic()
                    continue
                lay.gen_begin_write(idx)
                lay.write_page(idx, data)
                was_dirty = lay.entry_status(idx) == ST_DIRTY
                lay.set_entry_status(idx, ST_DIRTY)
                lay.gen_end_write(idx)
                lay.unlock(idx, LOCK_WRITE)
                yield from self._atomic()
                yield from self.host_cpu.execute(
                    self.params.host_copy_per_4k, tag="cache-host"
                )
                self.stats.write_hits += 1
                if not was_dirty:
                    self.ctrl.put(("dirty", lay.bucket_of(inode, lpn)))
                self.ctrl.put(("touch", inode, lpn, idx))
                return
            # Claim a free entry in the bucket, then look again (DESIGN.md
            # §9.6): a DPU insert may have published the key while the claim
            # was in flight.  The look and the publish below (status DIRTY)
            # happen at one instant.
            idx = yield from self._claim_free(inode, lpn)
            if idx is not None and self._find_any(inode, lpn) is not None:
                lay.adjust_free(1)
                lay.gen_end_write(idx)
                lay.unlock(idx, LOCK_WRITE)
                yield from self._atomic()
                continue  # write into the entry that published first
            if idx is not None:
                lay.write_page(idx, data)
                lay.set_entry_status(idx, ST_DIRTY)
                lay.gen_end_write(idx)
                lay.unlock(idx, LOCK_WRITE)
                yield from self._atomic()
                yield from self.host_cpu.execute(
                    self.params.host_copy_per_4k, tag="cache-host"
                )
                self.stats.write_inserts += 1
                self.ctrl.put(("dirty", lay.bucket_of(inode, lpn)))
                self.ctrl.put(("touch", inode, lpn, idx))
                return
            # Bucket full: ask the DPU control plane to evict, then retry.
            self.stats.evict_waits += 1
            reply: Store = Store(self.env)
            self.ctrl.put(("evict", lay.bucket_of(inode, lpn), reply))
            yield reply.get()

    def _claim_free(self, inode: int, lpn: int) -> Generator[Event, None, Optional[int]]:
        """Atomically claim a free entry in the key's bucket (write-locked).

        On success the entry is returned locked with its generation odd
        (mutation in flight); the caller finishes the fill and calls
        ``gen_end_write`` + ``unlock``.
        """
        lay = self.layout
        for i in lay.chain(lay.bucket_of(inode, lpn)):
            if lay.entry_status(i) != ST_FREE:
                continue
            ok = lay.try_lock(i, LOCK_WRITE)
            yield from self._atomic()
            if not ok:
                self.stats.write_lock_retries += 1
                continue
            if lay.entry_status(i) != ST_FREE:  # raced with another claimer
                lay.unlock(i, LOCK_WRITE)
                yield from self._atomic()
                continue
            lay.gen_begin_write(i)
            lay.set_entry_key(i, inode, lpn)
            lay.adjust_free(-1)
            yield from self._atomic()
            return i
        return None

    # -- invalidation (truncate/unlink paths) --------------------------------------
    def invalidate(self, inode: int, lpn: int) -> Generator[Event, None, bool]:
        """Drop a page from the cache (discarding dirty data); True if found."""
        lay = self.layout
        yield from self.host_cpu.execute(_LOOKUP_COST, tag="cache-host")
        idx = self._find(inode, lpn)
        if idx is None:
            return False
        while True:
            ok = lay.try_lock(idx, LOCK_WRITE)
            yield from self._atomic()
            if ok:
                break
            yield self.env.timeout(_LOCK_RETRY)
            if lay.entry_status(idx) == ST_FREE or lay.entry_key(idx) != (inode, lpn):
                return False
        lay.gen_begin_write(idx)
        lay.set_entry_status(idx, ST_FREE)
        lay.adjust_free(1)
        lay.gen_end_write(idx)
        lay.unlock(idx, LOCK_WRITE)
        yield from self._atomic()
        self.ctrl.put(("forget", idx))
        return True
