"""Unit tests for the cache memory layout and its replacement policy."""

import pytest

from repro.cache.layout import (
    CacheLayout,
    ENTRY_SIZE,
    LOCK_FREE,
    LOCK_READ,
    LOCK_WRITE,
    NIL,
    ST_CLEAN,
    ST_DIRTY,
    ST_FREE,
)
from repro.cache.policies import ClockPolicy
from repro.sim.memory import MemoryArena


def make_layout(pages=64, buckets=8, page_size=4096):
    arena = MemoryArena(pages * (page_size + ENTRY_SIZE) + 4096 * 4)
    return CacheLayout(arena, pages, page_size, buckets)


def test_header_fields_initialised():
    lay = make_layout()
    h = lay.header()
    assert h["pagesize"] == 4096
    assert h["total"] == 64
    assert h["free"] == 64
    assert h["buckets"] == 8
    assert h["entries_per_bucket"] == 8
    assert h["mode"] == 1


def test_pages_must_divide_buckets():
    arena = MemoryArena(1 << 20)
    with pytest.raises(ValueError):
        CacheLayout(arena, pages=10, buckets=3, page_size=512)


def test_bucket_chains_cover_all_entries_once():
    lay = make_layout()
    seen = []
    for b in range(lay.buckets):
        seen.extend(lay.chain(b))
    assert sorted(seen) == list(range(lay.pages))


def test_chain_terminates_with_nil():
    lay = make_layout(pages=16, buckets=4)
    chain = list(lay.chain(0))
    assert len(chain) == 4
    assert lay.entry_next(chain[-1]) == NIL


def test_entry_initial_state():
    lay = make_layout()
    e = lay.read_entry(0)
    assert e["lock"] == LOCK_FREE
    assert e["status"] == ST_FREE


def test_bucket_of_is_deterministic_and_in_range():
    lay = make_layout()
    for ino in range(20):
        for lpn in range(20):
            b = lay.bucket_of(ino, lpn)
            assert 0 <= b < lay.buckets
            assert b == lay.bucket_of(ino, lpn)


def test_entry_and_page_pairing():
    """Entry i corresponds positionally to page i."""
    lay = make_layout()
    assert lay.page_addr(0) == lay.data_base
    assert lay.page_addr(5) - lay.page_addr(4) == lay.page_size
    assert lay.entry_addr(5) - lay.entry_addr(4) == ENTRY_SIZE


def test_page_read_write():
    lay = make_layout()
    lay.write_page(3, b"hello page")
    assert lay.read_page(3, 10) == b"hello page"
    with pytest.raises(ValueError):
        lay.write_page(3, b"x" * (lay.page_size + 1))


def test_lock_cas_semantics():
    lay = make_layout()
    assert lay.try_lock(0, LOCK_WRITE)
    assert not lay.try_lock(0, LOCK_READ)  # already write-locked
    assert not lay.unlock(0, LOCK_READ)  # wrong kind
    assert lay.unlock(0, LOCK_WRITE)
    assert lay.try_lock(0, LOCK_READ)
    assert lay.unlock(0, LOCK_READ)


def test_status_and_key_accessors():
    lay = make_layout()
    lay.set_entry_key(7, 1234, 56)
    lay.set_entry_status(7, ST_DIRTY)
    assert lay.entry_key(7) == (1234, 56)
    assert lay.entry_status(7) == ST_DIRTY


def test_free_count_adjustment():
    lay = make_layout()
    lay.adjust_free(-3)
    assert lay.free_count() == 61
    lay.adjust_free(3)
    assert lay.free_count() == 64


def test_index_bounds_checked():
    lay = make_layout()
    with pytest.raises(IndexError):
        lay.entry_addr(lay.pages)
    with pytest.raises(IndexError):
        lay.page_addr(-1)


# ---------------------------------------------------------------- policies
def test_clock_gives_second_chance():
    p = ClockPolicy()
    p.touch(1)
    p.touch(2)
    # Both referenced: first sweep clears bits, second sweep evicts 1.
    assert p.victim([1, 2]) == 1


def test_clock_prefers_unreferenced():
    p = ClockPolicy()
    p.touch(1)
    assert p.victim([1, 2]) == 2


def test_clock_picks_a_used_once_page_before_running_the_clock():
    """A page a stream has consumed goes first, even ahead of a page the
    clock would pick (2 is unreferenced, 3 was used once)."""
    p = ClockPolicy()
    p.touch(1)
    p.touch(3)
    p.used_once(3)
    assert p.victim([1, 2, 3]) == 3
    assert p.victim([1, 2]) == 2  # no used-once candidate: plain CLOCK


def test_clock_touch_and_forget_clear_the_used_once_mark():
    p = ClockPolicy()
    p.touch(1)
    p.used_once(1)
    p.touch(1)  # a second access promotes the page
    assert p.victim([1, 2]) == 2
    p.used_once(2)
    p.forget(2)  # the entry was freed: its next page starts unmarked
    p.touch(2)
    assert p.victim([2, 3]) == 3
