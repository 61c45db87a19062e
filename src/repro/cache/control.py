"""DPU-side control plane of the hybrid cache (sharded).

Everything here runs on DPU cores and touches the host-resident cache only
through DMA and PCIe atomics — the control/data-plane separation of paper
§3.3.  Three responsibilities:

* **Flushing**: periodically scan the meta area (bucket-targeted, using the
  dirty hints the host posts), read-lock dirty pages, pull their data to DPU
  DRAM by DMA, run the back-end writeback (compression/DIF/EC happen here in
  the real system), then mark them clean and unlock — all atomically.
* **Replacement**: serve the host's "bucket full" requests by choosing a
  victim with a pluggable policy (LRU/CLOCK shadow state lives in DPU DRAM),
  writing it back if dirty, and freeing the entry.
* **Prefetching**: watch the host's miss notifications, detect sequential
  streams with an adaptive (Linux-readahead-style) window, fetch ahead from
  the backend in pipelined chunks and install pages into the host cache by
  DMA.

**Sharding** (DESIGN.md §9): the control plane is split into
``params.cache_ctrl_shards`` bucket-range shards.  Each shard owns a
contiguous bucket range and runs its *own* mailbox server, flusher loop
(with a per-shard flush budget) and replacement policy on its own DPU core
group.  Host notifications are routed by ``bucket_of()``, so the
mailbox-driven bucket work (dirty tracking, flush rounds, replacement) of
any given bucket is only ever executed by its owning shard — the shards
need no inter-shard locks.  Prefetch installs and demand fills remain
lock-guarded concurrent operations (exactly like host writes) and may run
from any process.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable, Generator, Iterator, Optional

from ..obsv.quantiles import NULL_HUB
from ..obsv.tracer import NULL_TRACER
from ..params import SystemParams
from ..sim.core import Environment, Event
from ..sim.cpu import CpuPool
from ..sim.pcie import PcieLink
from ..sim.resources import Resource, Store
from .layout import (
    CacheLayout,
    ENTRY_SIZE,
    LOCK_FREE,
    LOCK_READ,
    LOCK_WRITE,
    ST_CLEAN,
    ST_DIRTY,
    ST_FREE,
    ST_INVALID,
)
from .policies import AdaptiveReadahead, ClockPolicy

__all__ = ["CacheControlPlane"]

#: raw wire format of one cache entry: the control plane parses DMA'd entry
#: bytes rather than using host-side accessors
_ENTRY = struct.Struct("<IIIIQQ")  # lock, status, next, gen, lpn, inode
#: page write-backs one shard's fsync sweep keeps in flight: the only width at
#: which no cache_buffered metric pays for fsync's shorter tail (DESIGN.md §9.4)
_SYNC_WINDOW = 4

# Writeback/fetch backends: generators so they can cross the network.
Writeback = Callable[[int, int, bytes], Generator]
Fetch = Callable[[int, int], Generator]
#: optional run-granular fetch hook: (inode, first_lpn, npages) -> pages
FetchRun = Callable[[int, int, int], Generator]


def _gen_odd(g: int) -> int:
    """Next odd generation after ``g`` (writer-in-flight marker)."""
    return ((g + 1) | 1) & 0xFFFFFFFF


def _gen_even(g: int) -> int:
    """Next even generation after ``g`` (stable, strictly greater)."""
    return ((g | 1) + 1) & 0xFFFFFFFF


def _unpack_entry(raw: bytes, offset: int = 0) -> dict:
    lock, status, nxt, gen, lpn, inode = _ENTRY.unpack_from(raw, offset)
    return {"lock": lock, "status": status, "next": nxt, "gen": gen, "lpn": lpn, "inode": inode}


class _Shard:
    """One bucket-range shard: mailbox + flusher + policy + dirty set."""

    def __init__(self, env: Environment, sid: int, lo: int, hi: int):
        self.sid = sid
        self.lo = lo  # first bucket owned (inclusive)
        self.hi = hi  # last bucket owned (exclusive)
        self.mailbox: Store = Store(env)
        self.policy = ClockPolicy()
        self.dirty_buckets: set[int] = set()
        self.tag = f"cache-ctrl-s{sid}"


class CacheControlPlane:
    """The offloaded cache manager (facade over N bucket-range shards)."""

    #: flight-recorder hook; builders replace this with a live tracer
    tracer = NULL_TRACER
    #: latency-sketch hub; builders replace this with a live hub
    sketches = NULL_HUB

    def __init__(
        self,
        env: Environment,
        link: PcieLink,
        dpu_cpu: CpuPool,
        params: SystemParams,
        layout: CacheLayout,
        mailbox: Store,
        writeback: Writeback,
        fetch: Optional[Fetch] = None,
        prefetch_enabled: bool = True,
        dif_enabled: bool = True,
        fetch_run: Optional[FetchRun] = None,
        breaker=None,
    ):
        self.env = env
        self.link = link
        self.dpu_cpu = dpu_cpu
        self.params = params
        self.layout = layout
        self.mailbox = mailbox
        self.writeback = writeback
        self.fetch = fetch
        self.fetch_run = fetch_run
        #: optional :class:`~repro.fault.CircuitBreaker` guarding the
        #: writeback backend: while open, dirty pages stay dirty (and keep
        #: their bucket queued) instead of burning retries per flush round
        self.breaker = breaker
        self.writeback_failures = 0
        self.writeback_skipped = 0
        self.prefetch_enabled = prefetch_enabled and (
            fetch is not None or fetch_run is not None
        )
        #: adaptive per-inode read-ahead state (shared DPU DRAM: stream
        #: detection is global even though fills are dispatched per shard)
        self.readahead = AdaptiveReadahead(
            init_window=params.readahead_init_window,
            max_window=params.prefetch_window,
        )
        #: entry index -> (inode, lpn) shadow for policy decisions
        self._shadow: dict[int, tuple[int, int]] = {}
        #: (inode, lpn) pages a prefetch chunk has in flight
        self._prefetch_inflight: set[tuple[int, int]] = set()
        #: bounds concurrent prefetch fetches so streams cannot starve the
        #: backend (and each other) under high thread counts
        self._prefetch_slots = Resource(env, 256)
        #: DIF: per-page CRCs computed at flush time (paper §3.3 lists DIF
        #: among the flush-path computations) and verified when the page is
        #: re-fetched from the backend.  Shared across shards (flush and
        #: fetch of one page can land on different shards' processes).
        self.dif_enabled = dif_enabled
        self._dif: dict[tuple[int, int], int] = {}
        #: per-(inode, backend block) writeback serialization: the backend
        #: updates blocks by read-modify-write, so two pages of one block
        #: flushed by different shards concurrently would lose an update
        self._wb_locks: dict[tuple[int, int], Resource] = {}
        #: entry index -> event fired when the write-back holding its
        #: LOCK_READ unlocks: fsync parks on it instead of polling the lock
        self._wb_inflight: dict[int, Event] = {}
        self.dif_checks = 0
        self.dif_errors = 0
        self.flushed_pages = 0
        self.evictions = 0
        self.prefetched_pages = 0
        #: pages dropped by delegation-recall coherence invalidations
        self.invalidations = 0
        # ---- shards ------------------------------------------------------
        nshards = max(1, min(params.cache_ctrl_shards, layout.buckets))
        per = (layout.buckets + nshards - 1) // nshards
        self._bucket_span = per
        self._shards: list[_Shard] = [
            _Shard(env, i, i * per, min((i + 1) * per, layout.buckets))
            for i in range(nshards)
        ]
        #: per-shard flush budget: the aggregate budget is split evenly
        self._shard_flush_batch = max(1, -(-params.cache_flush_batch // nshards))
        env.process(self._router(), name="cache-ctrl-router")
        for shard in self._shards:
            env.process(self._server(shard), name=f"cache-ctrl-s{shard.sid}")
            env.process(self._flusher(shard), name=f"cache-flusher-s{shard.sid}")

    # ------------------------------------------------------------------ routing
    @property
    def nshards(self) -> int:
        return len(self._shards)

    def shard_of_bucket(self, bucket: int) -> int:
        """The routing invariant: bucket -> owning shard id (total function)."""
        return min(bucket // self._bucket_span, len(self._shards) - 1)

    def _shard_for(self, bucket: int) -> _Shard:
        return self._shards[self.shard_of_bucket(bucket)]

    def _policy_of_idx(self, idx: int):
        return self._shard_for(idx // self.layout.entries_per_bucket).policy

    def dirty_pages(self) -> int:
        """Instantaneous count of dirty entries (diagnostic host-side scan)."""
        lay = self.layout
        return sum(
            1
            for idx in range(lay.pages)
            if lay.read_entry(idx)["status"] == ST_DIRTY
        )

    def _route(self, msg: tuple) -> None:
        kind = msg[0]
        if kind in ("miss", "touch"):
            bucket = self.layout.bucket_of(msg[1], msg[2])
        elif kind in ("dirty", "evict"):
            bucket = msg[1]
        elif kind == "forget":
            bucket = msg[1] // self.layout.entries_per_bucket
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown cache control message {kind!r}")
        self._shard_for(bucket).mailbox.put(msg)

    def _router(self) -> Generator[Event, None, None]:
        """Drain the host-facing mailbox into the per-shard mailboxes.

        Routing itself is free on the simulated clock (it models the nvme-fs
        control command carrying a queue id); the per-message CPU cost is
        paid by the owning shard's server, concurrently across shards.
        """
        while True:
            msg = yield self.mailbox.get()
            self._route(msg)

    # ------------------------------------------------------------------ server
    def _server(self, shard: _Shard) -> Generator[Event, None, None]:
        while True:
            msg = yield shard.mailbox.get()
            kind = msg[0]
            if kind == "touch":
                _, inode, lpn, idx = msg
                shard.policy.touch(idx)
                self._shadow[idx] = (inode, lpn)
                # Hits keep a sequential stream's window extending ahead of
                # the reader (misses alone would stall once the window fills).
                if self.prefetch_enabled:
                    self._dispatch_readahead(inode, lpn)
            elif kind == "dirty":
                shard.dirty_buckets.add(msg[1])
            elif kind == "forget":
                shard.policy.forget(msg[1])
                self._shadow.pop(msg[1], None)
            elif kind == "miss":
                _, inode, lpn = msg
                yield from self.dpu_cpu.execute(
                    self.params.dpu_cache_ctrl_cost, tag=shard.tag
                )
                if self.prefetch_enabled:
                    self._dispatch_readahead(inode, lpn)
            elif kind == "evict":
                _, bucket, reply = msg
                yield from self.dpu_cpu.execute(
                    self.params.dpu_cache_ctrl_cost, tag=shard.tag
                )
                yield from self._evict_from_bucket(bucket)
                yield reply.put("evicted")
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown cache control message {kind!r}")

    # ------------------------------------------------------------------ plumbing
    def _parallel(self, gens: list) -> Generator[Event, None, list]:
        procs = [self.env.process(g) for g in gens]
        if not procs:
            return []
        results = yield self.env.all_of(procs)
        return [results[p] for p in procs]

    @staticmethod
    def _runs(indices: list[int]) -> list[tuple[int, int]]:
        """Split sorted indices into contiguous ``(start, count)`` runs."""
        runs: list[tuple[int, int]] = []
        for idx in indices:
            if runs and idx == runs[-1][0] + runs[-1][1]:
                runs[-1] = (runs[-1][0], runs[-1][1] + 1)
            else:
                runs.append((idx, 1))
        return runs

    # ------------------------------------------------------------------ DMA meta access
    def _dma_read_entry(self, index: int) -> Generator[Event, None, dict]:
        raw = yield from self.link.dma_read(
            self.layout.entry_addr(index), ENTRY_SIZE, tag="meta-read"
        )
        return _unpack_entry(raw)

    def _dma_read_bucket(self, bucket: int) -> Generator[Event, None, list[tuple[int, dict]]]:
        """Read a whole bucket's entries in one DMA (they are contiguous)."""
        lay = self.layout
        first = lay.bucket_head(bucket)
        raw = yield from self.link.dma_read(
            lay.entry_addr(first), ENTRY_SIZE * lay.entries_per_bucket, tag="meta-scan"
        )
        return [
            (first + j, _unpack_entry(raw, j * ENTRY_SIZE))
            for j in range(lay.entries_per_bucket)
        ]

    def _scan_shard(self, shard: _Shard) -> Generator[Event, None, tuple[int, Iterator[dict]]]:
        """Read a shard's whole entry array in one burst DMA (entries are
        laid out contiguously by index) -> ``(first index, entries)``; the
        entries are unpacked as they are iterated, a shard can hold thousands."""
        lay = self.layout
        first = shard.lo * lay.entries_per_bucket
        count = (shard.hi - shard.lo) * lay.entries_per_bucket
        raw = yield from self.link.dma_read(
            lay.entry_addr(first), count * ENTRY_SIZE, tag="meta-scan"
        )
        if count > 1:
            self.link.stats.record_burst("meta-scan", count)
        return first, (_unpack_entry(raw, j * ENTRY_SIZE) for j in range(count))

    # ------------------------------------------------------------------ flushing
    def _flusher(self, shard: _Shard) -> Generator[Event, None, None]:
        p = self.params
        full_sweep_countdown = 0
        while True:
            yield self.env.timeout(p.cache_flush_period)
            buckets = sorted(shard.dirty_buckets)
            shard.dirty_buckets.clear()
            if not buckets:
                full_sweep_countdown += 1
                if full_sweep_countdown >= 50:
                    # Rare straggler sweep over this shard's bucket range.
                    full_sweep_countdown = 0
                    buckets = list(range(shard.lo, shard.hi))
                else:
                    continue
            flushed = 0
            for bucket in buckets:
                if flushed >= self._shard_flush_batch:
                    shard.dirty_buckets.add(bucket)  # revisit next period
                    continue
                flushed += yield from self._flush_bucket(
                    bucket, self._shard_flush_batch - flushed
                )

    def _flush_bucket(self, bucket: int, budget: int) -> Generator[Event, None, int]:
        entries = yield from self._dma_read_bucket(bucket)
        dirty = [(idx, ent) for idx, ent in entries if ent["status"] == ST_DIRTY]
        candidates = [idx for idx, ent in dirty if ent["lock"] == LOCK_FREE][:budget]
        if len(candidates) < len(dirty):
            # Over budget, or locked right now (the host's hint for a page
            # that is already dirty is suppressed): revisit next period.
            self._shard_for(bucket).dirty_buckets.add(bucket)
        if not candidates:
            return 0
        return (yield from self._flush_entries(candidates))[0]

    def _flush_entries(self, idxs: list[int]) -> Generator[Event, None, tuple[int, list[int]]]:
        """Write back a batch of dirty pages with batched PCIe rounds.

        Locks are taken in one parallel CAS round, the still-dirty entries
        and their pages are pulled in contiguous burst DMAs (entries and
        pages are laid out by index, so a dirty run costs one transaction,
        not one per page), writebacks overlap, and the unlock CAS round is
        parallel again — the batch pays round-trip latency O(rounds), not
        O(pages).  Returns ``(dirty pages handled, missed)``: ``missed``
        lists the entries whose lock was lost or whose writeback failed;
        their buckets are re-queued for the flusher.
        """
        t0 = self.env.now
        with self.tracer.span("cache.flush", track="cache", parent=None, n=len(idxs)):
            res = yield from self._flush_entries_impl(idxs)
        self.sketches.observe("cache.flush", self.env.now - t0)
        return res

    def _flush_entries_impl(
        self, idxs: list[int]
    ) -> Generator[Event, None, tuple[int, list[int]]]:
        lay = self.layout
        locked_flags = yield from self._parallel(
            [self._try_lock_read(idx) for idx in idxs]
        )
        locked = sorted(idx for idx, ok in zip(idxs, locked_flags) if ok)
        missed = [idx for idx, ok in zip(idxs, locked_flags) if not ok]
        for idx in missed:
            self._remark_dirty(idx)
        if not locked:
            return 0, missed
        done = self.env.event()
        self._wb_inflight.update(dict.fromkeys(locked, done))
        # Re-read the locked entries (burst per contiguous run) — the host
        # may have raced a write or an invalidate before our lock landed.
        ents: dict[int, dict] = {}
        for start, n in self._runs(locked):
            raw = yield from self.link.dma_read(
                lay.entry_addr(start), n * ENTRY_SIZE, tag="meta-read"
            )
            if n > 1:
                self.link.stats.record_burst("meta-read", n)
            for j in range(n):
                ents[start + j] = _unpack_entry(raw, j * ENTRY_SIZE)
        dirty = [idx for idx in locked if ents[idx]["status"] == ST_DIRTY]
        # Pull the page data in contiguous burst reads.
        pages: dict[int, bytes] = {}
        for start, n in self._runs(dirty):
            raw = yield from self.link.dma_read(
                lay.page_addr(start), n * lay.page_size, tag="flush-data"
            )
            if n > 1:
                self.link.stats.record_burst("flush-data", n)
            for j in range(n):
                pages[start + j] = raw[j * lay.page_size : (j + 1) * lay.page_size]
        landed = yield from self._parallel(
            [self._writeback_one(idx, ents[idx], pages[idx]) for idx in dirty]
        )
        missed += [idx for idx, ok in zip(dirty, landed) if not ok]
        yield from self._parallel([self._unlock_read(idx) for idx in locked])
        for idx in locked:
            del self._wb_inflight[idx]
        if done.callbacks:  # an event nobody parked on is not worth scheduling
            done.succeed()
        return len(dirty), missed

    def _try_lock_read(self, idx: int) -> Generator[Event, None, bool]:
        return (
            yield from self.link.atomic_cas_u32(
                self.layout.lock_addr(idx), LOCK_FREE, LOCK_READ, tag="lock-cas"
            )
        )

    def _unlock_read(self, idx: int) -> Generator[Event, None, None]:
        yield from self.link.atomic_cas_u32(
            self.layout.lock_addr(idx), LOCK_READ, LOCK_FREE, tag="lock-cas"
        )

    def _remark_dirty(self, idx: int) -> None:
        """Re-queue an entry's bucket after a failed/skipped writeback.

        The entry itself is still ST_DIRTY (it is only marked clean after a
        successful writeback); this just makes sure the flusher revisits its
        bucket even though the dirty-hint set was already drained.
        """
        bucket = idx // self.layout.entries_per_bucket
        self._shard_for(bucket).dirty_buckets.add(bucket)

    def _writeback_one(self, idx: int, ent: dict, data: bytes) -> Generator[Event, None, bool]:
        """Backend processing for one locked dirty page (EC/compression run
        here in the paper; we compute the DIF guard tag on the DPU); True
        if the page reached the backend and is marked clean.

        The page data is untouched, so the seqlock generation is left
        alone — only key/data mutations bump it.  A writeback the backend
        fails (retry budget exhausted) leaves the page dirty and trips the
        circuit breaker; while the breaker is open the flusher degrades to
        skipping the backend entirely — the half-open probe after the reset
        window is the first page to try again.
        """
        if self.breaker is not None and not self.breaker.allow():
            self.writeback_skipped += 1
            self._remark_dirty(idx)
            return False
        yield from self.dpu_cpu.execute(
            self.params.dpu_cache_ctrl_cost, tag="cache-flush"
        )
        if self.dif_enabled:
            yield from self.dpu_cpu.execute(0.3e-6, tag="cache-dif")
            self._dif[(ent["inode"], ent["lpn"])] = zlib.crc32(data)
        block = (
            ent["inode"],
            ent["lpn"] * self.layout.page_size // self.params.kvfs_block_size,
        )
        lock = self._wb_locks.get(block)
        if lock is None:
            lock = self._wb_locks[block] = Resource(self.env, 1)
        req = lock.request()
        yield req
        failed = False
        try:
            yield from self.writeback(ent["inode"], ent["lpn"], data)
        except Exception:
            failed = True
        finally:
            lock.release(req)
            if lock.count == 0 and lock.queue_len == 0:
                self._wb_locks.pop(block, None)
        if failed:
            self.writeback_failures += 1
            if self.breaker is not None:
                self.breaker.record_failure()
            self._remark_dirty(idx)
            return False
        if self.breaker is not None:
            self.breaker.record_success()
        # Mark clean: 4-byte DMA write of the status field.
        yield from self.link.dma_write(
            self.layout.entry_addr(idx) + 4, ST_CLEAN.to_bytes(4, "little"), tag="flush-status"
        )
        self.flushed_pages += 1
        return True

    def flush_all(self) -> Generator[Event, None, int]:
        """Write back every page that is dirty *now* (fsync/unmount path).

        A snapshot sweep, shard-parallel: fsync owes what was written before
        the call and nothing about later writes, so it terminates under
        writers that never pause.  Returns the number of pages written back.
        """
        counts = yield from self._parallel(
            [self._sync_shard(shard) for shard in self._shards]
        )
        return sum(counts)

    def _sync_shard(self, shard: _Shard) -> Generator[Event, None, int]:
        """One burst scan names the pages owed; they go through a pipeline of
        ``_SYNC_WINDOW`` single-page write-backs, so a page's lock is held
        for its own write-back only.  Pages missed (lock lost, backend
        failed) are retried from one more scan filtered to them, after the
        back-off and after every write-back of ours that holds one of their
        locks has finished — bounded, like the loop this replaces.
        """
        handled = 0
        missed: Optional[list[int]] = None
        for _attempt in range(12):
            if missed:
                parked = [self._wb_inflight[i] for i in missed if i in self._wb_inflight]
                yield self.env.all_of([self.env.timeout(20e-6), *parked])
            first, ents = yield from self._scan_shard(shard)
            owed = [
                idx
                for idx, e in enumerate(ents, first)
                if e["status"] == ST_DIRTY and (missed is None or idx in missed)
            ]
            todo, missed = iter(owed), []
            lanes = [self._sync_pages(todo, missed) for _ in range(min(_SYNC_WINDOW, len(owed)))]
            handled += sum((yield from self._parallel(lanes)))
            if not missed:
                break
        return handled

    def _sync_pages(self, todo, missed: list[int]) -> Generator[Event, None, int]:
        """One lane of the fsync pipeline: the next owed page, alone."""
        handled = 0
        for idx in todo:
            n, lost = yield from self._flush_entries([idx])
            handled += n
            missed += lost
        return handled

    # ------------------------------------------------------------------ replacement
    def _evict_from_bucket(self, bucket: int) -> Generator[Event, None, bool]:
        entries = yield from self._dma_read_bucket(bucket)
        candidates = [idx for idx, e in entries if e["status"] in (ST_CLEAN, ST_DIRTY)]
        if not candidates:
            return False
        policy = self._shard_for(bucket).policy
        order = []
        victim = policy.victim(candidates)
        if victim is not None:
            order.append(victim)
        order.extend(i for i in candidates if i not in order)
        emap = dict(entries)
        for idx in order:
            if emap[idx]["status"] == ST_DIRTY:
                yield from self._flush_entries([idx])
                if self.breaker is not None:
                    # With a fallible backend the flush may not have landed;
                    # never free a still-dirty victim (that would drop data).
                    ent = yield from self._dma_read_entry(idx)
                    if ent["status"] == ST_DIRTY:
                        continue
            # Free it: write-lock via PCIe atomic, clear status, bump free.
            ok = yield from self.link.atomic_cas_u32(
                self.layout.lock_addr(idx), LOCK_FREE, LOCK_WRITE, tag="lock-cas"
            )
            if not ok:
                continue
            yield from self.link.dma_write(
                self.layout.entry_addr(idx) + 4, ST_FREE.to_bytes(4, "little"), tag="evict-status"
            )
            yield from self.link.atomic_faa_u32(
                self.layout.free_count_addr, 1, tag="free-count"
            )
            yield from self.link.atomic_cas_u32(
                self.layout.lock_addr(idx), LOCK_WRITE, LOCK_FREE, tag="lock-cas"
            )
            policy.forget(idx)
            self._shadow.pop(idx, None)
            self.evictions += 1
            return True
        return False

    # ------------------------------------------------------------------ coherence
    def invalidate_inode(self, inode: int) -> Generator[Event, None, int]:
        """Flush-and-drop every cached page of ``inode`` (delegation recall).

        Cross-client coherence: when the MDS recalls this node's delegation
        on a file, pages cached under the old delegation must not serve
        future reads.  Dirty pages are written back first — the recalled
        owner's data lands in the backend *before* the contender's writes —
        then every matching entry is freed evict-style (write-lock, status
        ST_FREE, free-count bump).  Stale DIF tags for the inode are dropped
        with the pages.

        Each shard's whole entry array is scanned in one burst DMA and the
        shards sweep in parallel, so the recall ack fits comfortably inside
        the MDS's ``deleg_recall_timeout`` deadline.  Returns the number of
        pages dropped.
        """
        counts = yield from self._parallel(
            [self._invalidate_shard(shard, inode) for shard in self._shards]
        )
        dropped = sum(counts)
        if self.dif_enabled:
            for key in [k for k in self._dif if k[0] == inode]:
                del self._dif[key]
        self.invalidations += dropped
        return dropped

    def _invalidate_shard(self, shard: _Shard, inode: int) -> Generator[Event, None, int]:
        dropped = 0
        for _attempt in range(6):
            first, ents = yield from self._scan_shard(shard)
            mine = [
                (idx, e)
                for idx, e in enumerate(ents, first)
                if e["inode"] == inode and e["status"] in (ST_CLEAN, ST_DIRTY)
            ]
            if not mine:
                break
            dirty = sorted(idx for idx, e in mine if e["status"] == ST_DIRTY)
            if dirty:
                yield from self._flush_entries(dirty)
            outcomes = yield from self._parallel(
                [self._invalidate_entry(idx, inode) for idx, _e in mine]
            )
            dropped += sum(1 for o in outcomes if o == "freed")
            if "retry" not in outcomes:
                break
            # A host write or concurrent flusher is racing us: back off and
            # rescan the shard range.
            yield self.env.timeout(5e-6)
        return dropped

    def _invalidate_entry(self, idx: int, inode: int) -> Generator[Event, None, str]:
        """Free one entry if it still caches ``inode``; evict-style."""
        ent = yield from self._dma_read_entry(idx)
        if ent["inode"] != inode or ent["status"] not in (ST_CLEAN, ST_DIRTY):
            return "gone"
        if ent["status"] == ST_DIRTY:
            return "retry"  # flush raced a host write or was breaker-skipped
        ok = yield from self.link.atomic_cas_u32(
            self.layout.lock_addr(idx), LOCK_FREE, LOCK_WRITE, tag="lock-cas"
        )
        if not ok:
            return "retry"
        yield from self.link.dma_write(
            self.layout.entry_addr(idx) + 4,
            ST_FREE.to_bytes(4, "little"),
            tag="evict-status",
        )
        yield from self.link.atomic_faa_u32(
            self.layout.free_count_addr, 1, tag="free-count"
        )
        yield from self.link.atomic_cas_u32(
            self.layout.lock_addr(idx), LOCK_WRITE, LOCK_FREE, tag="lock-cas"
        )
        self._policy_of_idx(idx).forget(idx)
        self._shadow.pop(idx, None)
        return "freed"

    # ------------------------------------------------------------------ read-ahead dispatch
    def _dispatch_readahead(self, inode: int, lpn: int) -> None:
        """Feed the stream detector; spawn pipelined fills for the window.

        The adaptive window is split into backend-block-aligned chunks;
        each chunk is one spawned fetch-and-install process, so a growing
        window turns into several fetches in flight at once (bounded by the
        prefetch slots) — backend latency overlaps host consumption.
        """
        wants = self.readahead.observe(inode, lpn)
        if not wants:
            return
        block_pages = max(1, self.params.kvfs_block_size // self.layout.page_size)
        chunk_pages = max(block_pages, self.readahead.init_window)
        # Dedupe page-granular against chunks already in flight (a chunk
        # only claims/installs the pages it was dispatched for).
        fresh = [w for w in wants if (inode, w) not in self._prefetch_inflight]
        for start, count in self._runs(fresh):
            pos = start
            while pos < start + count:
                n = min(chunk_pages, start + count - pos)
                pages = {(inode, p) for p in range(pos, pos + n)}
                self._prefetch_inflight.update(pages)
                self.env.process(
                    self._prefetch_chunk(inode, pos, n, pages),
                    name="prefetch",
                )
                pos += n

    # ------------------------------------------------------------------ prefetch / fill
    def _prefetch_chunk(
        self, inode: int, first_lpn: int, npages: int, pages: set[tuple[int, int]]
    ) -> Generator[Event, None, None]:
        """Fetch a contiguous run of pages and install them.

        Pages are *pre-claimed* with status INVALID ("I/O pending") before
        the backend round trip, exactly like locked readahead pages in a
        page cache: a reader that races the prefetch waits on the pending
        entry instead of issuing a duplicate backend read.  Claims proceed
        in parallel (each is a multi-round-trip PCIe conversation); the run
        is then fetched with one backend call when a run-granular hook is
        available, else one call per backend block, in parallel.
        """
        slot = self._prefetch_slots.request()
        yield slot
        try:
            t0 = self.env.now
            with self.tracer.span("cache.prefetch", track="cache", parent=None,
                                  lpn=first_lpn, n=npages):
                yield from self._prefetch_chunk_impl(inode, first_lpn, npages)
            self.sketches.observe("cache.prefetch", self.env.now - t0)
        finally:
            # Sync-only cleanup (no yields: the simulation may be tearing
            # this process down via GeneratorExit).
            self._prefetch_slots.release(slot)
            self._prefetch_inflight.difference_update(pages)

    def _prefetch_chunk_impl(
        self, inode: int, first_lpn: int, npages: int
    ) -> Generator[Event, None, None]:
        lpns = list(range(first_lpn, first_lpn + npages))
        idxs = yield from self._parallel(
            [self._claim_pending(inode, lpn) for lpn in lpns]
        )
        claimed = {  # lpn -> (entry index, generation the claim wrote)
            lpn: claim for lpn, claim in zip(lpns, idxs) if claim is not None
        }
        if not claimed:
            return  # everything already cached/pending or buckets full
        got = yield from self._fetch_pages(inode, first_lpn, npages)
        # DIF verification: a fetched page whose guard tag mismatches the
        # one recorded at flush time is corrupt — refuse to install it.
        for lpn in list(got):
            if not self._dif_ok(inode, lpn, got[lpn]):
                del got[lpn]
        installs = []
        for lpn, (idx, gen) in claimed.items():
            data = got.get(lpn)
            if data is not None:
                installs.append(self._install_one(inode, lpn, idx, gen, data))
            else:
                installs.append(self._release_pending(idx, gen, inode, lpn))
        yield from self._parallel(installs)

    def _install_one(
        self, inode: int, lpn: int, idx: int, gen: int, data: bytes
    ) -> Generator[Event, None, None]:
        ok = yield from self._install_pending(idx, gen, inode, lpn, data)
        if ok:
            self.prefetched_pages += 1
            self._shadow[idx] = (inode, lpn)
            self._policy_of_idx(idx).touch(idx)

    def _fetch_pages(
        self, inode: int, first_lpn: int, npages: int
    ) -> Generator[Event, None, dict[int, bytes]]:
        """Backend fetch for a page run -> {lpn: data} (possibly partial)."""
        got: dict[int, bytes] = {}
        if self.fetch_run is not None:
            try:
                pages = yield from self.fetch_run(inode, first_lpn, npages)
            except Exception:
                pages = None
            if pages:
                got.update(dict(pages))
            return got
        # Per-block fallback, in two parallel waves: block-granular backends
        # answer the first wave (one fetch per block) completely; backends
        # that return only the exact page asked for get a second wave for
        # the pages the first one left uncovered.
        block_pages = max(1, self.params.kvfs_block_size // self.layout.page_size)
        want = list(range(first_lpn, first_lpn + npages))

        def one(lpn: int) -> Generator[Event, None, Optional[list]]:
            try:
                return (yield from self.fetch(inode, lpn))  # type: ignore[misc]
            except Exception:
                return None

        starts = sorted({(lpn // block_pages) * block_pages for lpn in want})
        starts = [max(s, first_lpn) for s in starts]
        for wave in (starts, None):
            lpns = wave if wave is not None else [p for p in want if p not in got]
            if not lpns:
                break
            results = yield from self._parallel([one(lpn) for lpn in lpns])
            for pages in results:
                if pages:
                    got.update(dict(pages))
        return {lpn: data for lpn, data in got.items() if lpn in set(want)}

    def _claim_pending(
        self, inode: int, lpn: int
    ) -> Generator[Event, None, Optional[tuple[int, int]]]:
        """Grab a free entry in the key's bucket, mark it I/O-pending.

        A full bucket evicts a victim first (readahead pressure reclaims
        cold pages, exactly like page-cache readahead).  The claimed entry
        is left with an *odd* generation: it stays "mutating" for seqlock
        readers until the install publishes data with the next even value.
        Returns ``(entry index, that generation)``: the generation is the
        claim's identity, which the install or release must find unchanged.
        """
        lay = self.layout
        bucket = lay.bucket_of(inode, lpn)
        entries = yield from self._dma_read_bucket(bucket)
        for _idx, e in entries:
            if e["status"] in (ST_CLEAN, ST_DIRTY, ST_INVALID) and (
                e["inode"], e["lpn"]
            ) == (inode, lpn):
                return None  # already cached or pending
        if not any(e["status"] == ST_FREE for _i, e in entries):
            evicted = yield from self._evict_from_bucket(bucket)
            if not evicted:
                return None
            entries = yield from self._dma_read_bucket(bucket)
        for idx, e in entries:
            if e["status"] != ST_FREE or e["lock"] != LOCK_FREE:
                continue
            ok = yield from self.link.atomic_cas_u32(
                lay.lock_addr(idx), LOCK_FREE, LOCK_WRITE, tag="lock-cas"
            )
            if not ok:
                continue
            ent = yield from self._dma_read_entry(idx)
            if ent["status"] != ST_FREE:
                yield from self.link.atomic_cas_u32(
                    lay.lock_addr(idx), LOCK_WRITE, LOCK_FREE, tag="lock-cas"
                )
                continue
            gen = _gen_odd(ent["gen"])
            meta = _ENTRY.pack(LOCK_WRITE, ST_INVALID, ent["next"], gen, lpn, inode)
            yield from self.link.dma_write(lay.entry_addr(idx), meta, tag="claim-meta")
            yield from self.link.atomic_faa_u32(
                lay.free_count_addr, 0xFFFFFFFF, tag="free-count"
            )
            yield from self.link.atomic_cas_u32(
                lay.lock_addr(idx), LOCK_WRITE, LOCK_FREE, tag="lock-cas"
            )
            return idx, gen
        return None

    @staticmethod
    def _is_claim(ent: dict, gen: int, inode: int, lpn: int) -> bool:
        """Is ``ent`` still the pending claim that wrote ``gen`` for this key?
        Status alone cannot tell: during the fetch the page may have been
        written, flushed and evicted and the entry claimed again."""
        return (ent["status"], ent["gen"], ent["inode"], ent["lpn"]) == (
            ST_INVALID, gen, inode, lpn
        )

    def _install_pending(
        self, idx: int, gen: int, inode: int, lpn: int, data: bytes
    ) -> Generator[Event, None, bool]:
        """Write the fetched page into its pending entry and mark it clean."""
        lay = self.layout
        ok = yield from self.link.atomic_cas_u32(
            lay.lock_addr(idx), LOCK_FREE, LOCK_WRITE, tag="lock-cas"
        )
        if not ok:
            return False
        ent = yield from self._dma_read_entry(idx)
        if not self._is_claim(ent, gen, inode, lpn):
            # A racing writer already dirtied this page, or the entry has
            # moved on to another claim; either way keep what is there.
            yield from self.link.atomic_cas_u32(
                lay.lock_addr(idx), LOCK_WRITE, LOCK_FREE, tag="lock-cas"
            )
            return False
        page = data.ljust(lay.page_size, b"\0")[: lay.page_size]
        yield from self.link.dma_write(lay.page_addr(idx), page, tag="fill-data")
        # Publish: status -> CLEAN and generation -> next even, in one
        # contiguous 12-byte DMA (status, next, gen).
        publish = struct.pack("<III", ST_CLEAN, ent["next"], _gen_even(ent["gen"]))
        yield from self.link.dma_write(
            lay.entry_addr(idx) + 4, publish, tag="fill-status"
        )
        yield from self.link.atomic_cas_u32(
            lay.lock_addr(idx), LOCK_WRITE, LOCK_FREE, tag="lock-cas"
        )
        return True

    def _release_pending(
        self, idx: int, gen: int, inode: int, lpn: int
    ) -> Generator[Event, None, None]:
        """Abandon a pending claim (EOF or failed fetch)."""
        lay = self.layout
        ok = yield from self.link.atomic_cas_u32(
            lay.lock_addr(idx), LOCK_FREE, LOCK_WRITE, tag="lock-cas"
        )
        if not ok:
            return
        ent = yield from self._dma_read_entry(idx)
        if self._is_claim(ent, gen, inode, lpn):
            publish = struct.pack("<III", ST_FREE, ent["next"], _gen_even(ent["gen"]))
            yield from self.link.dma_write(
                lay.entry_addr(idx) + 4, publish, tag="claim-free"
            )
            yield from self.link.atomic_faa_u32(
                lay.free_count_addr, 1, tag="free-count"
            )
        yield from self.link.atomic_cas_u32(
            lay.lock_addr(idx), LOCK_WRITE, LOCK_FREE, tag="lock-cas"
        )

    def _dif_ok(self, inode: int, lpn: int, data: bytes) -> bool:
        """Verify a backend-fetched page against its flush-time guard tag."""
        if not self.dif_enabled:
            return True
        recorded = self._dif.get((inode, lpn))
        if recorded is None:
            return True
        self.dif_checks += 1
        page = data.ljust(self.layout.page_size, b"\0")[: self.layout.page_size]
        if zlib.crc32(page) != recorded:
            self.dif_errors += 1
            return False
        return True

    def dif_drop(self, inode: int, lpn: int) -> None:
        """Forget a page's guard tag (direct writes bypass the flusher)."""
        self._dif.pop((inode, lpn), None)

    def dif_drop_file(self, inode: int) -> None:
        """Forget every guard tag of a file (truncate/unlink)."""
        for key in [k for k in self._dif if k[0] == inode]:
            del self._dif[key]

    def dif_drop_range(self, inode: int, lpn: int, count: int) -> None:
        """Forget the guard tags of a contiguous page run in one call."""
        for i in range(count):
            self._dif.pop((inode, lpn + i), None)

    def fill(self, inode: int, lpn: int, data: bytes) -> Generator[Event, None, bool]:
        """Install a page into the host cache from the DPU side (clean)."""
        if not self._dif_ok(inode, lpn, data):
            return False
        lay = self.layout
        bucket = lay.bucket_of(inode, lpn)
        entries = yield from self._dma_read_bucket(bucket)
        # Already present? (raced with a demand fill)
        for idx, e in entries:
            if e["status"] in (ST_CLEAN, ST_DIRTY) and (e["inode"], e["lpn"]) == (inode, lpn):
                return False
        for idx, e in entries:
            if e["status"] != ST_FREE or e["lock"] != LOCK_FREE:
                continue
            ok = yield from self.link.atomic_cas_u32(
                lay.lock_addr(idx), LOCK_FREE, LOCK_WRITE, tag="lock-cas"
            )
            if not ok:
                continue
            # Re-check status under the lock.
            ent = yield from self._dma_read_entry(idx)
            if ent["status"] != ST_FREE:
                yield from self.link.atomic_cas_u32(
                    lay.lock_addr(idx), LOCK_WRITE, LOCK_FREE, tag="lock-cas"
                )
                continue
            page = data.ljust(lay.page_size, b"\0")[: lay.page_size]
            yield from self.link.dma_write(lay.page_addr(idx), page, tag="fill-data")
            meta = _ENTRY.pack(
                LOCK_WRITE, ST_CLEAN, ent["next"], _gen_even(ent["gen"]), lpn, inode
            )
            yield from self.link.dma_write(lay.entry_addr(idx), meta, tag="fill-meta")
            yield from self.link.atomic_faa_u32(
                lay.free_count_addr, 0xFFFFFFFF, tag="free-count"
            )
            yield from self.link.atomic_cas_u32(
                lay.lock_addr(idx), LOCK_WRITE, LOCK_FREE, tag="lock-cas"
            )
            self._shadow[idx] = (inode, lpn)
            self._policy_of_idx(idx).touch(idx)
            return True
        return False

    def fill_run(
        self, inode: int, first_lpn: int, pages: list[bytes]
    ) -> Generator[Event, None, int]:
        """Install a contiguous run of pages in one batched call.

        One control-plane invocation installs the whole run: the per-page
        bucket walks proceed in parallel (pages hash to independent buckets
        spread across all shards) instead of one spawned process per 4 KiB
        page.  Returns the number of pages actually installed.
        """
        results = yield from self._parallel(
            [self.fill(inode, first_lpn + i, page) for i, page in enumerate(pages)]
        )
        return sum(1 for ok in results if ok)
