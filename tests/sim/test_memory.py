"""Unit + property tests for the memory arena and its allocator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.memory import MemoryArena, OutOfMemory


def test_alloc_returns_aligned_addresses():
    arena = MemoryArena(4096)
    a = arena.alloc(10, align=64)
    assert a % 64 == 0
    b = arena.alloc(10, align=256)
    assert b % 256 == 0


def test_alloc_free_roundtrip_restores_space():
    arena = MemoryArena(1024)
    before = arena.free_bytes()
    a = arena.alloc(100)
    b = arena.alloc(200)
    arena.free(a)
    arena.free(b)
    assert arena.free_bytes() == before
    assert arena.allocated_bytes() == 0


def test_allocations_do_not_overlap():
    arena = MemoryArena(4096)
    spans = []
    for n in [100, 37, 512, 64, 1]:
        a = arena.alloc(n)
        spans.append((a, a + n))
    spans.sort()
    for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
        assert e1 <= s2


def test_out_of_memory_raised():
    arena = MemoryArena(256)
    arena.alloc(200)
    with pytest.raises(OutOfMemory):
        arena.alloc(100)


def test_free_unknown_address_rejected():
    arena = MemoryArena(256)
    with pytest.raises(ValueError):
        arena.free(10)


def test_coalescing_allows_full_size_realloc():
    arena = MemoryArena(1024)
    addrs = [arena.alloc(128, align=1) for _ in range(8)]
    for a in addrs:
        arena.free(a)
    # After coalescing a single 1024-byte block must be allocatable.
    big = arena.alloc(1024, align=1)
    assert big == 0


def test_read_write_roundtrip():
    arena = MemoryArena(1024)
    arena.write(100, b"hello world")
    assert arena.read(100, 11) == b"hello world"


def test_typed_access_little_endian():
    arena = MemoryArena(64)
    arena.write_u32(0, 0x11223344)
    assert arena.read(0, 4) == bytes([0x44, 0x33, 0x22, 0x11])
    assert arena.read_u32(0) == 0x11223344
    arena.write_u64(8, 0xDEADBEEFCAFEBABE)
    assert arena.read_u64(8) == 0xDEADBEEFCAFEBABE
    arena.write_u16(20, 0xABCD)
    assert arena.read_u16(20) == 0xABCD


def test_bounds_checking():
    arena = MemoryArena(64)
    with pytest.raises(IndexError):
        arena.read(60, 8)
    with pytest.raises(IndexError):
        arena.write(-1, b"x")
    with pytest.raises(IndexError):
        arena.read_u64(60)


def test_fill():
    arena = MemoryArena(64)
    arena.fill(8, 16, 0xAB)
    assert arena.read(8, 16) == bytes([0xAB]) * 16
    assert arena.read(0, 8) == bytes(8)


def test_cas_u32_semantics():
    arena = MemoryArena(64)
    arena.write_u32(0, 5)
    assert arena.cas_u32(0, 5, 9) is True
    assert arena.read_u32(0) == 9
    assert arena.cas_u32(0, 5, 11) is False
    assert arena.read_u32(0) == 9


def test_faa_u32_semantics():
    arena = MemoryArena(64)
    arena.write_u32(0, 10)
    assert arena.faa_u32(0, 3) == 10
    assert arena.read_u32(0) == 13
    # Wraps at 32 bits.
    arena.write_u32(4, 0xFFFFFFFF)
    assert arena.faa_u32(4, 1) == 0xFFFFFFFF
    assert arena.read_u32(4) == 0


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["alloc", "free"]), st.integers(1, 300)),
        min_size=1,
        max_size=60,
    )
)
def test_allocator_invariants_random_workload(ops):
    """Free bytes + allocated bytes always partition the arena; no overlaps."""
    arena = MemoryArena(8192)
    live = []
    for kind, n in ops:
        if kind == "alloc":
            try:
                a = arena.alloc(n, align=8)
            except OutOfMemory:
                continue
            live.append((a, n))
        elif live:
            idx = n % len(live)
            a, _ = live.pop(idx)
            arena.free(a)
        # Invariant 1: partition.
        assert arena.free_bytes() + arena.allocated_bytes() <= arena.size
        # Invariant 2: no overlap among live allocations.
        spans = sorted((a, a + l) for a, l in live)
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            assert e1 <= s2


@settings(max_examples=40, deadline=None)
@given(data=st.binary(min_size=1, max_size=128), addr=st.integers(0, 512))
def test_write_read_property(data, addr):
    arena = MemoryArena(1024)
    arena.write(addr, data)
    assert arena.read(addr, len(data)) == data


def test_large_arena_is_lazily_backed():
    """A 1 GiB arena costs nothing until touched: both ends read zeros and
    a write in the last page round-trips."""
    size = 1 << 30
    arena = MemoryArena(size)
    assert arena.read(0, 64) == bytes(64)
    assert arena.read(size - 64, 64) == bytes(64)
    arena.write(size - 100, b"tail-page")
    arena.write_u64(size - 8, 0xDEADBEEFCAFEF00D)
    assert arena.read(size - 100, 9) == b"tail-page"
    assert arena.read_u64(size - 8) == 0xDEADBEEFCAFEF00D
    assert arena.read(0, 64) == bytes(64)
