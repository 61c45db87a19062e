"""Flash device model under the KV shard engine (DESIGN.md §14).

With ``kv_flash_model=True`` a shard's service time stops being the fixed
get/put split of :class:`~repro.params.SystemParams` and becomes the sum of
the flash operations the request actually needs:

* **mapping lookup** — the key-to-page mapping lives in flash translation
  pages; a **cached mapping table** (CMT) holds ``kv_cmt_entries`` of them
  in shard DRAM.  A CMT hit costs a DRAM lookup, a miss costs one
  translation-page flash read before the data page can even be addressed.
* **data pages** — a get reads ``ceil(len(value)/page)`` data pages, a put
  programs them through a log-structured write buffer (partial pages of
  small values coalesce into shared programs).
* **garbage collection** — every ``kv_flash_block_pages`` page programs
  owe one erase-block reclaim: one erase plus relocation of the block's still
  live pages (``kv_flash_gc_live`` of it, read + program each).  The debt
  joins a per-device backlog that one background process works off a block
  at a time; the put that crossed the boundary returns after its own
  programs.  Only with ``GC_RESERVE_BLOCKS`` reclaims already owed does it
  park until one ends: sustained overload is throttled to one block of
  programs per reclaim, an isolated put never waits.
* **small-value inlining** — values at or below the inline threshold are
  stored *inside* the mapping entry (KVPack-style): a get that hits the
  CMT needs no flash read at all, and even a CMT miss serves the value
  straight from the translation page it just fetched.  KVFS attribute and
  small-file KVs are exactly this shape.

The threshold is static (``kv_inline_max``) or adaptive: with
``kv_inline_adapt_window = N`` the store re-derives it every N engine
operations from two log2 histograms — value sizes written and value sizes
read — picking the power-of-two threshold that maximises flash time saved
(reads that skip the data page) minus flash time spent (mapping-entry bytes
inflating translation-page programs).  Both histograms live in the obsv
registry, so the decision inputs are visible in every snapshot.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generator, Optional

from ..obsv.metrics import Log2Histogram
from ..params import SystemParams
from ..sim.core import Environment, Event

__all__ = ["FlashStats", "FlashKvModel"]


class FlashStats:
    """Operation counters of one shard's flash model."""

    def __init__(self) -> None:
        self.page_reads = 0
        self.page_writes = 0
        self.erases = 0
        self.gc_page_moves = 0
        self.cmt_hits = 0
        self.cmt_misses = 0
        self.inline_gets = 0  # gets served without a data-page read
        self.inline_puts = 0
        self.hinted_inline_puts = 0  # inlined on a client hint, not size alone
        self.adaptations = 0
        self.gc_stalls = 0  # puts that parked at the spare-block reserve
        self.gc_stall_time = 0.0  # summed seconds those puts stayed parked
        self.gc_busy_time = 0.0  # seconds the background reclaim was running
        self.gc_backlog_max = 0


class FlashKvModel:
    """Costs flash operations for one shard on the simulated clock.

    The model is purely a *cost* layer: the :class:`~repro.kv.engine.LsmEngine`
    still holds the data.  The server calls :meth:`charge_get` /
    :meth:`charge_put` / :meth:`charge_scan` around engine operations; each
    returns a generator that advances the clock by the flash work implied.
    """

    #: bytes a mapping entry occupies in a translation page (key digest +
    #: page address + liveness bits) before any inlined value
    MAP_ENTRY_BYTES = 32
    #: spare erase blocks: the most reclaims the device lets itself owe
    #: before a put that crosses a block boundary has to wait for one
    GC_RESERVE_BLOCKS = 4

    def __init__(self, env: Environment, params: SystemParams, name: str = "flash"):
        self.env = env
        self.params = params
        self.name = name
        self.stats = FlashStats()
        #: CMT: key -> inlined value (or None for a page-resident value).
        self._cmt: OrderedDict[bytes, Optional[bytes]] = OrderedDict()
        #: keys whose value was inlined at put time (authoritative — the
        #: threshold may move later without rewriting old entries)
        self._inlined: dict[bytes, bool] = {}
        self.inline_threshold = params.kv_inline_max if params.kv_inline_enabled else 0
        #: log-structured write buffer fill (bytes toward the next program)
        self._wbuf = 0
        #: page programs into the current erase block
        self._since_gc = 0
        #: blocks owed to GC; a reclaim process is alive exactly while it is > 0
        self._backlog = 0
        #: what puts parked at the reserve wait on (None: nobody is parked)
        self._reclaimed: Optional[Event] = None
        self._ops = 0
        #: adaptive-threshold inputs, registered into the obsv registry by
        #: the topology builder when the flash model is on
        self.put_sizes = Log2Histogram(f"{name}.put_size")
        self.get_sizes = Log2Histogram(f"{name}.get_size")

    # -- flash primitives ------------------------------------------------------
    def _read_pages(self, n: int) -> Generator[Event, None, None]:
        if n <= 0:
            return
        self.stats.page_reads += n
        yield self.env.timeout(n * self.params.kv_flash_read_us)

    def _program_pages(self, n: int) -> Generator[Event, None, None]:
        if n <= 0:
            return
        s = self.stats
        s.page_writes += n
        yield self.env.timeout(n * self.params.kv_flash_write_us)
        self._since_gc += n
        while self._since_gc >= self.params.kv_flash_block_pages:
            self._since_gc -= self.params.kv_flash_block_pages
            if self._backlog >= self.GC_RESERVE_BLOCKS:
                s.gc_stalls += 1
                parked = self.env.now
                while self._backlog >= self.GC_RESERVE_BLOCKS:
                    if self._reclaimed is None:
                        self._reclaimed = self.env.event()
                    yield self._reclaimed
                s.gc_stall_time += self.env.now - parked
            self._backlog += 1
            s.gc_backlog_max = max(s.gc_backlog_max, self._backlog)
            if self._backlog == 1:
                self.env.process(self._reclaim(), name=f"{self.name}-gc")

    def _reclaim(self) -> Generator[Event, None, None]:
        """Background GC: work the backlog off one erase block at a time, in
        slices — the erase, then one live-page move (read + program) each."""
        p, s, env = self.params, self.stats, self.env
        live = int(p.kv_flash_block_pages * p.kv_flash_gc_live)
        while self._backlog:
            began = env.now
            s.erases += 1
            yield env.timeout(p.kv_flash_erase_us)
            for _ in range(live):
                # Moves do not feed back into _since_gc (GC writes to cleaned blocks).
                s.gc_page_moves += 1
                s.page_reads += 1
                s.page_writes += 1
                yield env.timeout(p.kv_flash_read_us + p.kv_flash_write_us)
            s.gc_busy_time += env.now - began
            self._backlog -= 1
            if self._reclaimed is not None:
                self._reclaimed.succeed()
                self._reclaimed = None

    def _buffered_write(self, nbytes: int) -> Generator[Event, None, None]:
        """Append ``nbytes`` to the log-structured write buffer; charge a
        program for every full page crossed (small writes coalesce)."""
        self._wbuf += nbytes
        pages = self._wbuf // self.params.kv_flash_page
        if pages:
            self._wbuf -= pages * self.params.kv_flash_page
            yield from self._program_pages(pages)

    # -- mapping table ---------------------------------------------------------
    def _cmt_lookup(self, key: bytes) -> Generator[Event, None, None]:
        """Charge the mapping lookup; a miss reads one translation page."""
        if key in self._cmt:
            self.stats.cmt_hits += 1
            self._cmt.move_to_end(key)
            yield self.env.timeout(self.params.kv_cmt_hit_us)
            return
        self.stats.cmt_misses += 1
        yield from self._read_pages(1)  # translation page
        self._cmt[key] = None
        while len(self._cmt) > self.params.kv_cmt_entries:
            self._cmt.popitem(last=False)

    def _data_pages(self, nbytes: int) -> int:
        page = self.params.kv_flash_page
        return (nbytes + page - 1) // page

    def is_inlined(self, key: bytes) -> bool:
        return self._inlined.get(key, False)

    # -- request costing -------------------------------------------------------
    def charge_get(
        self, key: bytes, value: Optional[bytes]
    ) -> Generator[Event, None, None]:
        self._tick()
        yield from self._cmt_lookup(key)
        if value is None:
            return
        self.get_sizes.observe(len(value))
        if self.is_inlined(key):
            # The value travelled with the mapping entry: the CMT hit (or the
            # translation-page read a miss just paid) already produced it.
            self.stats.inline_gets += 1
            return
        yield from self._read_pages(self._data_pages(len(value)))

    def charge_put(
        self, key: bytes, value: bytes, hint: bool = False
    ) -> Generator[Event, None, None]:
        """Charge one put.  ``hint=True`` marks a declared inline candidate
        (KVFS attrs/dentries/small files): it is inlined whenever it fits a
        translation page, even above the size-derived threshold."""
        self._tick()
        self.put_sizes.observe(len(value))
        inline = 0 < len(value) <= self.inline_threshold
        if hint and not inline and 0 < len(value) <= self.params.kv_flash_page:
            inline = True
            self.stats.hinted_inline_puts += 1
        self._inlined[key] = inline
        self._cmt[key] = value if inline else None
        self._cmt.move_to_end(key)
        while len(self._cmt) > self.params.kv_cmt_entries:
            self._cmt.popitem(last=False)
        if inline:
            self.stats.inline_puts += 1
            # The whole pair rides the translation-page log.
            yield from self._buffered_write(self.MAP_ENTRY_BYTES + len(value))
        else:
            yield from self._buffered_write(self.MAP_ENTRY_BYTES)
            yield from self._program_pages(self._data_pages(len(value)))

    def charge_delete(self, key: bytes) -> Generator[Event, None, None]:
        self._tick()
        self._inlined.pop(key, None)
        self._cmt.pop(key, None)
        yield from self._buffered_write(self.MAP_ENTRY_BYTES)  # tombstone entry

    def charge_scan(
        self, items: list[tuple[bytes, bytes]]
    ) -> Generator[Event, None, None]:
        """A scan walks translation pages in order; only non-inlined values
        need their data pages."""
        self._tick()
        per_page = max(1, self.params.kv_flash_page // self.MAP_ENTRY_BYTES)
        tpages = (len(items) + per_page - 1) // per_page if items else 1
        data = sum(
            self._data_pages(len(v)) for k, v in items if not self.is_inlined(k)
        )
        yield from self._read_pages(tpages + data)

    # -- adaptive threshold ----------------------------------------------------
    def _tick(self) -> None:
        win = self.params.kv_inline_adapt_window
        if not self.params.kv_inline_enabled or win <= 0:
            return
        self._ops += 1
        if self._ops % win == 0:
            self._adapt()

    def _adapt(self) -> None:
        """Re-derive the inline threshold from observed size histograms.

        For each candidate threshold T (powers of two up to ``kv_inline_max``)
        estimate net flash time per window:

        * saved: every get of a value <= T skips its data-page read(s);
        * spent: every put of a value <= T inflates the translation log by
          the value bytes, i.e. extra page programs.

        Pick the T with the best net saving; fall back to 0 (inlining off)
        when nothing helps.  Deterministic: same histograms, same answer.
        """
        p = self.params
        best_t, best_net = 0, 0.0
        t = 16
        while t <= p.kv_inline_max:
            saved = spent = 0.0
            for i in range(Log2Histogram.NBUCKETS):
                lo, hi = Log2Histogram.bucket_bounds(i)
                if hi > t:
                    break
                mid = max(lo, 1.0)
                saved += self.get_sizes.buckets[i] * p.kv_flash_read_us * max(
                    1, int(mid) // p.kv_flash_page + 1
                )
                spent += (
                    self.put_sizes.buckets[i] * mid / p.kv_flash_page
                ) * p.kv_flash_write_us
            net = saved - spent
            if net > best_net:
                best_t, best_net = t, net
            t *= 2
        if best_t != self.inline_threshold:
            self.stats.adaptations += 1
            self.inline_threshold = best_t

    # -- obsv ------------------------------------------------------------------
    def metrics(self, prefix: str) -> dict[str, float]:
        out = {f"{prefix}.{k}": v for k, v in vars(self.stats).items()}
        out[f"{prefix}.inline_threshold"] = self.inline_threshold
        return out
