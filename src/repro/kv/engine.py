"""An LSM-tree key-value engine with ordered prefix/range scans.

This is the storage engine behind each shard of the disaggregated KV store
that KVFS converts file operations into (paper §3.4).  The paper treats the
KV store as a given; we build a real one so KVFS's contracts — ordered
prefix scans for ``readdir``, point gets for attributes, in-place 8 K block
puts for big files — are honoured by actual data-structure behaviour:

* a sorted **memtable** absorbing writes,
* immutable **sorted runs** flushed from it (binary-searched, Bloom-guarded),
* tiered **compaction** merging runs and dropping tombstones,
* a **merge iterator** giving newest-wins ordered scans across all levels,
* a **write-ahead log** covering the memtable, so a crash loses no
  acknowledged write: :meth:`crash_recover` drops the (volatile) memtable
  and replays the log on parallel lanes split by key, exactly the
  durability contract a real LSM node gives its clients.

Keys and values are ``bytes``.  Deletes write tombstones, as in any LSM.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Iterator, Optional

from .bloom import BloomFilter

__all__ = ["LsmEngine", "SortedRun", "EngineStats"]

#: Tombstone marker stored in memtables/runs for deleted keys.
_TOMBSTONE = None


class SortedRun:
    """An immutable sorted (key, value) array with a Bloom filter."""

    __slots__ = ("keys", "values", "bloom")

    def __init__(self, items: list[tuple[bytes, Optional[bytes]]]):
        # items must be sorted by key and free of duplicate keys.
        self.keys: list[bytes] = [k for k, _ in items]
        self.values: list[Optional[bytes]] = [v for _, v in items]
        self.bloom = BloomFilter(len(items) or 1)
        for k in self.keys:
            self.bloom.add(k)

    def __len__(self) -> int:
        return len(self.keys)

    def get(self, key: bytes) -> tuple[bool, Optional[bytes]]:
        """(found, value) — value is None for a tombstone hit."""
        if key not in self.bloom:
            return False, None
        i = bisect.bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            return True, self.values[i]
        return False, None

    def slice(self, start: bytes, end: Optional[bytes]) -> Iterator[tuple[bytes, Optional[bytes]]]:
        """Yield entries with start <= key < end (end=None → unbounded)."""
        i = bisect.bisect_left(self.keys, start)
        while i < len(self.keys):
            k = self.keys[i]
            if end is not None and k >= end:
                return
            yield k, self.values[i]
            i += 1

    def size_bytes(self) -> int:
        return sum(len(k) + (len(v) if v is not None else 0) for k, v in zip(self.keys, self.values))


class EngineStats:
    """Write/read amplification and compaction counters."""

    def __init__(self) -> None:
        self.puts = 0
        self.gets = 0
        self.deletes = 0
        self.scans = 0
        self.flushes = 0
        self.compactions = 0
        self.bytes_flushed = 0
        self.bytes_compacted = 0


def _prefix_end(prefix: bytes) -> Optional[bytes]:
    """Smallest key greater than every key starting with ``prefix``."""
    p = bytearray(prefix)
    while p:
        if p[-1] != 0xFF:
            p[-1] += 1
            return bytes(p)
        p.pop()
    return None  # prefix of all 0xFF: unbounded


class LsmEngine:
    """Single-node LSM engine: memtable + tiered sorted runs."""

    def __init__(
        self,
        memtable_limit_bytes: int = 4 * 1024 * 1024,
        max_runs: int = 6,
    ):
        self.memtable: dict[bytes, Optional[bytes]] = {}
        self._mem_bytes = 0
        self.memtable_limit = memtable_limit_bytes
        self.max_runs = max_runs
        #: newest first
        self.runs: list[SortedRun] = []
        #: write-ahead log of un-flushed mutations (value None = tombstone).
        #: Runs are durable; the WAL covers exactly the memtable and is
        #: truncated when a flush persists it.
        self.wal: list[tuple[bytes, Optional[bytes]]] = []
        self.stats = EngineStats()

    # -- point ops ----------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> None:
        if not isinstance(key, bytes) or not isinstance(value, bytes):
            raise TypeError("keys and values must be bytes")
        self.stats.puts += 1
        self.wal.append((key, value))
        old = self.memtable.get(key)
        self.memtable[key] = value
        self._mem_bytes += len(key) + len(value) - (len(old) if old else 0)
        if self._mem_bytes >= self.memtable_limit:
            self.flush()

    def get(self, key: bytes) -> Optional[bytes]:
        self.stats.gets += 1
        if key in self.memtable:
            return self.memtable[key]
        for run in self.runs:
            found, value = run.get(key)
            if found:
                return value  # value may be None (tombstone)
        return None

    def contains(self, key: bytes) -> bool:
        return self.get(key) is not None

    def delete(self, key: bytes) -> None:
        self.stats.deletes += 1
        self.wal.append((key, _TOMBSTONE))
        self.memtable[key] = _TOMBSTONE
        self._mem_bytes += len(key)
        if self._mem_bytes >= self.memtable_limit:
            self.flush()

    # -- scans ---------------------------------------------------------------------
    def scan_prefix(self, prefix: bytes, limit: Optional[int] = None) -> list[tuple[bytes, bytes]]:
        """All live (key, value) pairs whose key starts with ``prefix``, ordered."""
        return self.scan_range(prefix, _prefix_end(prefix), limit)

    def scan_range(
        self, start: bytes, end: Optional[bytes], limit: Optional[int] = None
    ) -> list[tuple[bytes, bytes]]:
        """Ordered live pairs with start <= key < end (newest version wins)."""
        self.stats.scans += 1
        # Sources, newest first: memtable then runs.
        mem_keys = sorted(
            k for k in self.memtable if k >= start and (end is None or k < end)
        )
        sources: list[Iterator[tuple[bytes, Optional[bytes]]]] = [
            iter([(k, self.memtable[k]) for k in mem_keys])
        ]
        sources.extend(run.slice(start, end) for run in self.runs)
        out: list[tuple[bytes, bytes]] = []
        # k-way merge with newest-wins on equal keys.
        heads: list[Optional[tuple[bytes, Optional[bytes]]]] = [
            next(src, None) for src in sources
        ]
        while True:
            best_key: Optional[bytes] = None
            for h in heads:
                if h is not None and (best_key is None or h[0] < best_key):
                    best_key = h[0]
            if best_key is None:
                break
            # Newest source holding best_key wins; advance every holder.
            winner: Optional[bytes] = None
            decided = False
            for i, h in enumerate(heads):
                if h is not None and h[0] == best_key:
                    if not decided:
                        winner = h[1]
                        decided = True
                    heads[i] = next(sources[i], None)
            if winner is not None:
                out.append((best_key, winner))
                if limit is not None and len(out) >= limit:
                    break
        return out

    # -- maintenance -------------------------------------------------------------------
    def flush(self) -> None:
        """Freeze the memtable into a new sorted run."""
        if not self.memtable:
            return
        items = sorted(self.memtable.items())
        run = SortedRun(items)
        self.runs.insert(0, run)
        self.stats.flushes += 1
        self.stats.bytes_flushed += run.size_bytes()
        self.memtable = {}
        self._mem_bytes = 0
        self.wal.clear()  # the run is durable; the log no longer covers anything
        if len(self.runs) > self.max_runs:
            self.compact()

    def compact(self) -> None:
        """Full tiered compaction: merge all runs, drop shadowed/tombstoned."""
        if len(self.runs) <= 1:
            return
        merged: dict[bytes, Optional[bytes]] = {}
        # Oldest first so newer runs overwrite.
        for run in reversed(self.runs):
            for k, v in zip(run.keys, run.values):
                merged[k] = v
        live = sorted((k, v) for k, v in merged.items() if v is not None)
        new_run = SortedRun(live)
        self.stats.compactions += 1
        self.stats.bytes_compacted += new_run.size_bytes()
        self.runs = [new_run] if live else []

    def purge(self, pred) -> int:
        """Physically drop every key matching ``pred`` from all levels.

        Used after a live migration moved a key range to another shard: the
        source must stop owning the data *without* writing per-key
        tombstones (the range no longer routes here, so tombstones would
        never be compacted against reads).  Returns the number of entries
        dropped.  The WAL is filtered too, so a crash cannot resurrect a
        moved key.
        """
        dropped = 0
        keep_mem = {}
        for k, v in self.memtable.items():
            if pred(k):
                dropped += 1
            else:
                keep_mem[k] = v
        self.memtable = keep_mem
        self.wal = [(k, v) for k, v in self.wal if not pred(k)]
        new_runs = []
        for run in self.runs:
            kept = [(k, v) for k, v in zip(run.keys, run.values) if not pred(k)]
            dropped += len(run) - len(kept)
            if kept:
                new_runs.append(SortedRun(kept))
        self.runs = new_runs
        self._mem_bytes = sum(
            len(k) + (len(v) if v is not None else 0) for k, v in self.memtable.items()
        )
        return dropped

    def crash_recover(self, lanes: int) -> list[int]:
        """Simulate a crash: lose the memtable, replay the WAL into a new one.

        Sorted runs survive (they are on durable media); every acknowledged
        but un-flushed mutation is recovered from the log.  The replay is
        split over ``lanes`` parallel lanes: a record goes to lane
        ``crc32(key) % lanes`` and each lane applies its records in log
        order.  Every record of one key lands in one lane, so newest-wins
        holds per key and any interleaving of the lanes builds the memtable
        a serial replay builds; this one applies the log in order and counts
        each lane.  Returns the record count of each lane; callers charge
        the longest lane on the simulated clock.
        """
        per_lane = [0] * lanes
        self.memtable = {}
        for key, value in self.wal:
            per_lane[zlib.crc32(key) % lanes] += 1
            self.memtable[key] = value
        self._mem_bytes = sum(
            len(k) + (len(v) if v is not None else 0) for k, v in self.memtable.items()
        )
        return per_lane

    # -- introspection --------------------------------------------------------------------
    def approximate_bytes(self) -> int:
        return self._mem_bytes + sum(r.size_bytes() for r in self.runs)

    def count_live(self) -> int:
        """Number of live keys (O(n); for tests and diagnostics)."""
        return len(self.scan_range(b"", None))
