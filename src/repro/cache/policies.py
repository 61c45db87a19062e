"""Replacement and prefetch policies run by the DPU cache control plane.

Offloading the control plane to the DPU "enables the adoption of a more
flexible and intelligent caching algorithm" (paper §3.3): the policy state
lives in DPU DRAM as ordinary Python objects, fed by the miss/flush traffic
the control plane already sees — the host never spends a cycle on it.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["ClockPolicy", "AdaptiveReadahead"]


class ClockPolicy:
    """CLOCK (second-chance) approximation of LRU."""

    def __init__(self) -> None:
        self._ref: dict[int, bool] = {}
        self._hand = 0

    def touch(self, index: int) -> None:
        self._ref[index] = True

    def forget(self, index: int) -> None:
        self._ref.pop(index, None)

    def victim(self, candidates: list[int]) -> Optional[int]:
        if not candidates:
            return None
        # Sweep at most two full revolutions of the candidate list.
        n = len(candidates)
        for _ in range(2 * n):
            idx = candidates[self._hand % n]
            self._hand += 1
            if self._ref.get(idx, False):
                self._ref[idx] = False
            else:
                return idx
        return candidates[0]


class AdaptiveReadahead:
    """Linux-readahead-style adaptive per-inode window (DESIGN.md §9).

    A stream is promoted after ``trigger`` consecutive sequential accesses,
    and each later sequential access extends the prefetch horizon ahead of
    the reader:

    * the window **ramps**: it starts at ``init_window`` when a stream is
      promoted and doubles on every sequential observation, saturating at
      ``max_window`` — a short sequential burst no longer blasts a full
      ``max_window`` of speculative backend reads;
    * the window **collapses** back to ``init_window`` when the stream goes
      random, so an inode that alternates scan/point access only ever pays
      small speculative batches;
    * an access at ``lpn == 0`` of an unseen inode is treated as the start
      of a stream (files are overwhelmingly read front-to-back), so a
      sequential scan pays one compulsory miss instead of two.
    """

    def __init__(self, init_window: int = 4, max_window: int = 96, trigger: int = 2):
        if init_window < 1 or max_window < init_window or trigger < 1:
            raise ValueError("need 1 <= init_window <= max_window and trigger >= 1")
        self.init_window = init_window
        self.max_window = max_window
        self.trigger = trigger
        #: inode -> [last lpn, run length, current window, highest prefetched]
        self._streams: dict[int, list[int]] = {}

    def observe(self, inode: int, lpn: int) -> list[int]:
        """Record an access; return the lpns to prefetch (possibly empty)."""
        st = self._streams.get(inode)
        if st is None:
            # Fast start: offset 0 on a fresh inode is almost certainly a scan.
            run = self.trigger if lpn == 0 else 1
            st = [lpn, run, self.init_window, -1]
        else:
            last, run, window, high = st
            if lpn == last + 1:
                run += 1
            elif lpn == last:
                return []  # repeated page: neither extends nor breaks the stream
            else:
                run = 1
                window = self.init_window  # collapse on random access
                high = -1
            st = [lpn, run, window, high]
        to_fetch: list[int] = []
        if st[1] >= self.trigger:
            start = max(lpn + 1, st[3] + 1)
            end = lpn + st[2]
            to_fetch = list(range(start, end + 1))
            if to_fetch:
                st[3] = to_fetch[-1]
            # Ramp for next time, whether or not this call added pages (the
            # reader may still be consuming an earlier batch).
            st[2] = min(st[2] * 2, self.max_window)
        self._streams[inode] = st
        return to_fetch

    def window_of(self, inode: int) -> int:
        """Current window size for ``inode`` (init if no stream yet)."""
        st = self._streams.get(inode)
        return st[2] if st is not None else self.init_window

    def drop(self, inode: int) -> None:
        self._streams.pop(inode, None)
