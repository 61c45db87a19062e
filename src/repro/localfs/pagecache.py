"""The host page cache used by the Ext4 baseline (buffered I/O).

An LRU of 4 KiB pages keyed by (ino, logical page).  Hits are host-memory
operations; misses and write-back go to the SSD through callbacks supplied
by the file system.  A background writeback process flushes dirty pages
periodically, and eviction of a dirty page forces a synchronous write-back
(the "dirty throttling" that shapes Ext4's buffered-write behaviour in
Figure 8).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generator, Optional

from ..sim.core import Environment, Event

__all__ = ["PageCache"]


class PageCache:
    """LRU page cache with background write-back."""

    def __init__(
        self,
        env: Environment,
        capacity_pages: int,
        writeback: Callable[[int, int, bytes], Generator],
        flush_period: float = 500e-6,
        flush_batch: int = 128,
    ):
        if capacity_pages < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity_pages
        self.writeback = writeback
        self.flush_period = flush_period
        self.flush_batch = flush_batch
        #: (ino, lpn) -> [data, dirty]
        self._pages: "OrderedDict[tuple[int, int], list]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.flushed = 0
        env.process(self._flusher(), name="pagecache-flusher")

    def __len__(self) -> int:
        return len(self._pages)

    # -- lookups (host memory: no simulated cost beyond the caller's CPU charge)
    def get(self, ino: int, lpn: int) -> Optional[bytes]:
        ent = self._pages.get((ino, lpn))
        if ent is None:
            self.misses += 1
            return None
        self._pages.move_to_end((ino, lpn))
        self.hits += 1
        return ent[0]

    def put(self, ino: int, lpn: int, data: bytes, dirty: bool) -> Generator[Event, None, None]:
        """Insert/update a page, evicting (and writing back) as needed."""
        key = (ino, lpn)
        if key in self._pages:
            ent = self._pages[key]
            ent[0] = data
            ent[1] = ent[1] or dirty
            self._pages.move_to_end(key)
            return
        while len(self._pages) >= self.capacity:
            old_key, (old_data, old_dirty) = self._pages.popitem(last=False)
            self.evictions += 1
            if old_dirty:
                yield from self.writeback(old_key[0], old_key[1], old_data)
                self.flushed += 1
        self._pages[key] = [data, dirty]

    def invalidate_file(self, ino: int) -> None:
        for key in [k for k in self._pages if k[0] == ino]:
            del self._pages[key]

    def invalidate_page(self, ino: int, lpn: int) -> None:
        self._pages.pop((ino, lpn), None)

    def flush_range(self, ino: int, first_lpn: int, count: int) -> Generator[Event, None, int]:
        """Write back dirty pages in ``[first_lpn, first_lpn + count)``.

        The O_DIRECT coherence primitive: direct I/O must observe buffered
        writes that still live only in the cache.
        """
        n = 0
        for lpn in range(first_lpn, first_lpn + count):
            ent = self._pages.get((ino, lpn))
            if ent is not None and ent[1]:
                yield from self.writeback(ino, lpn, ent[0])
                ent[1] = False
                self.flushed += 1
                n += 1
        return n

    # -- flushing --------------------------------------------------------------
    def flush_file(self, ino: int) -> Generator[Event, None, int]:
        """fsync: synchronously write back a file's dirty pages."""
        n = 0
        for key, ent in list(self._pages.items()):
            if key[0] == ino and ent[1]:
                yield from self.writeback(key[0], key[1], ent[0])
                ent[1] = False
                self.flushed += 1
                n += 1
        return n

    def _flusher(self) -> Generator[Event, None, None]:
        while True:
            yield self.env.timeout(self.flush_period)
            budget = self.flush_batch
            for key, ent in list(self._pages.items()):
                if budget <= 0:
                    break
                if ent[1]:
                    yield from self.writeback(key[0], key[1], ent[0])
                    ent[1] = False
                    self.flushed += 1
                    budget -= 1

    def dirty_count(self) -> int:
        return sum(1 for ent in self._pages.values() if ent[1])
