"""Integration tests: host data plane + DPU control plane working together."""

import random

import pytest

from repro.cache.control import CacheControlPlane
from repro.cache.hostplane import HostCachePlane
from repro.cache.layout import CacheLayout, ST_CLEAN, ST_DIRTY
from repro.params import default_params
from repro.sim.core import Environment
from repro.sim.cpu import CpuPool
from repro.sim.memory import MemoryArena
from repro.sim.pcie import PcieLink
from repro.sim.resources import Store


class FakeBackend:
    """Records writebacks and serves fetches from a dict."""

    def __init__(self, env):
        self.env = env
        self.store: dict[tuple[int, int], bytes] = {}
        self.writebacks = 0
        self.fetches = 0

    def writeback(self, inode, lpn, data):
        yield self.env.timeout(5e-6)
        self.store[(inode, lpn)] = data
        self.writebacks += 1

    def fetch(self, inode, lpn):
        yield self.env.timeout(5e-6)
        self.fetches += 1
        data = self.store.get((inode, lpn))
        return None if data is None else [(lpn, data)]


def build(pages=64, buckets=8, prefetch=True, params=None):
    env = Environment()
    p = (params or default_params()).with_overrides(
        cache_pages=pages, cache_buckets=buckets
    )
    arena = MemoryArena(pages * 5000 + (1 << 20))
    link = PcieLink(env, arena, latency=p.pcie_latency, bandwidth=p.pcie_bandwidth)
    host_cpu = CpuPool(env, 8, switch_cost=0)
    dpu_cpu = CpuPool(env, 8, switch_cost=0)
    layout = CacheLayout(arena, pages, 4096, buckets)
    mailbox = Store(env)
    host = HostCachePlane(env, layout, host_cpu, p, mailbox)
    backend = FakeBackend(env)
    ctrl = CacheControlPlane(
        env, link, dpu_cpu, p, layout, mailbox,
        writeback=backend.writeback, fetch=backend.fetch,
        prefetch_enabled=prefetch,
    )
    return env, layout, host, ctrl, backend


def drive(env, gen, until_extra=0.0):
    p = env.process(gen)
    result = env.run(until=p)
    if until_extra:
        env.run(until=env.now + until_extra)
    return result


def test_write_then_read_hit():
    env, _, host, _, _ = build()

    def flow():
        yield from host.write(1, 0, b"cached page data")
        data = yield from host.read(1, 0, 16)
        return data

    assert drive(env, flow()) == b"cached page data"
    assert host.stats.write_inserts == 1
    assert host.stats.read_hits == 1


def test_read_miss_returns_none():
    env, _, host, _, _ = build()

    def flow():
        return (yield from host.read(99, 0))

    assert drive(env, flow()) is None
    assert host.stats.read_misses == 1


def test_overwrite_same_page_no_new_entry():
    env, lay, host, _, _ = build()

    def flow():
        yield from host.write(1, 0, b"v1")
        yield from host.write(1, 0, b"v2")
        return (yield from host.read(1, 0, 2))

    assert drive(env, flow()) == b"v2"
    assert host.stats.write_inserts == 1
    assert host.stats.write_hits == 1
    assert lay.free_count() == lay.pages - 1


def test_flusher_writes_back_dirty_pages():
    env, lay, host, ctrl, backend = build()

    def flow():
        yield from host.write(7, 3, b"dirty data here")

    drive(env, flow(), until_extra=0.01)  # let the flusher run
    assert backend.store[(7, 3)].startswith(b"dirty data here")
    assert ctrl.flushed_pages == 1
    # Page is now clean but still cached.
    idx = host._find(7, 3)
    assert idx is not None
    assert lay.entry_status(idx) == ST_CLEAN


def test_flush_all_synchronous():
    env, _, host, ctrl, backend = build()

    def flow():
        for lpn in range(10):
            yield from host.write(1, lpn, f"page {lpn}".encode())
        n = yield from ctrl.flush_all()
        return n

    n = drive(env, flow())
    # The periodic flusher may claim some pages first; between the two,
    # every page reaches the backend exactly once.
    assert n >= 1
    assert backend.writebacks == 10
    for lpn in range(10):
        assert backend.store[(1, lpn)].startswith(f"page {lpn}".encode())


def test_eviction_when_bucket_full():
    env, lay, host, ctrl, backend = build(pages=8, buckets=1, prefetch=False)

    def flow():
        # 9 distinct pages through an 8-entry bucket forces one eviction.
        for lpn in range(9):
            yield from host.write(1, lpn, f"page-{lpn}".encode())

    drive(env, flow())
    assert ctrl.evictions >= 1
    assert host.stats.evict_waits >= 1


def test_evicted_dirty_page_is_written_back_not_lost():
    env, lay, host, ctrl, backend = build(pages=4, buckets=1, prefetch=False)

    def flow():
        for lpn in range(12):
            yield from host.write(1, lpn, f"page-{lpn}".encode())
        yield from ctrl.flush_all()

    drive(env, flow())
    # Every page either sits in cache or reached the backend.
    for lpn in range(12):
        cached = host._find(1, lpn)
        if cached is None:
            assert backend.store[(1, lpn)].startswith(f"page-{lpn}".encode())


def test_sequential_read_misses_trigger_prefetch():
    env, _, host, ctrl, backend = build(pages=256, buckets=32)
    # Backend holds a sequential file.
    for lpn in range(64):
        backend.store[(5, lpn)] = f"block {lpn}".encode().ljust(4096, b"\0")

    def flow():
        hits = 0
        for lpn in range(32):
            data = yield from host.read(5, lpn)
            if data is not None:
                hits += 1
            else:
                # Demand fetch (what the DPC client would do via nvme-fs).
                yield env.timeout(20e-6)
            # Give the control plane headroom, as a real app's think time would.
            yield env.timeout(10e-6)
        return hits

    hits = drive(env, flow())
    assert ctrl.prefetched_pages > 0
    assert hits > 16  # the stream gets served from cache after detection


def test_prefetched_data_is_correct():
    env, _, host, ctrl, backend = build(pages=256, buckets=32)
    for lpn in range(20):
        backend.store[(5, lpn)] = f"block {lpn}".encode().ljust(4096, b"\0")

    def flow():
        for lpn in range(3):
            yield from host.read(5, lpn)
            yield env.timeout(50e-6)
        # By now pages ahead must be cached; verify content.
        data = yield from host.read(5, 5)
        return data

    data = drive(env, flow())
    assert data is not None and data.startswith(b"block 5")


def test_invalidate_removes_page():
    env, lay, host, _, _ = build()

    def flow():
        yield from host.write(1, 0, b"stale")
        ok = yield from host.invalidate(1, 0)
        data = yield from host.read(1, 0)
        return ok, data

    ok, data = drive(env, flow())
    assert ok is True and data is None
    assert lay.free_count() == lay.pages


def test_invalidate_missing_page():
    env, _, host, _, _ = build()

    def flow():
        return (yield from host.invalidate(42, 42))

    assert drive(env, flow()) is False


def test_free_count_conserved():
    env, lay, host, ctrl, _ = build(pages=16, buckets=2, prefetch=False)

    def flow():
        for lpn in range(30):
            yield from host.write(1, lpn, b"x")
        yield from ctrl.flush_all()

    drive(env, flow(), until_extra=0.01)
    # free + live entries == total
    live = sum(
        1 for i in range(lay.pages) if lay.entry_status(i) in (ST_CLEAN, ST_DIRTY)
    )
    assert lay.free_count() + live == lay.pages


def test_cache_hit_much_faster_than_miss_path():
    """The data-plane-on-host argument: hits never cross PCIe."""
    env, _, host, _, backend = build()
    times = {}

    def flow():
        yield from host.write(1, 0, b"hot")
        t0 = env.now
        yield from host.read(1, 0)
        times["hit"] = env.now - t0
        t0 = env.now
        yield from host.read(2, 0)  # miss
        times["miss_lookup"] = env.now - t0

    drive(env, flow())
    assert times["hit"] < 3e-6  # sub-3us hit


def test_control_plane_dma_traffic_only_on_control_path():
    """Cache hits generate zero PCIe traffic."""
    env, lay, host, ctrl, _ = build(prefetch=False)

    def flow():
        yield from host.write(1, 0, b"data")
        # Wait for flusher to settle.
        yield env.timeout(0.005)
        snap = ctrl.link.stats.snapshot()
        for _ in range(10):
            yield from host.read(1, 0)
        d = ctrl.link.stats.delta(snap)
        return d.ops()

    assert drive(env, flow()) == 0


def test_sequential_scan_leaves_the_hot_set_resident():
    """Use-once (DESIGN.md §9.7): a hot set read twice survives a sequential
    scan of twice the cache's size.  The scan's consumed pages are its own
    first victims; plain CLOCK gave each hot page one second chance and then
    evicted it."""
    env, lay, host, ctrl, backend = build(pages=256, buckets=32)
    hot = [5 + 10 * k for k in range(32)]  # never adjacent: not a stream
    for lpn in hot:
        backend.store[(1, lpn)] = b"h" * 4096
    for lpn in range(2 * lay.pages):
        backend.store[(2, lpn)] = b"s" * 4096

    def read(inode, lpn):
        """The file system's buffered read: a miss is served by the backend
        and filled into the cache."""
        data = yield from host.read(inode, lpn, 4096)
        if data is None:
            data = backend.store[(inode, lpn)]
            yield env.timeout(5e-6)
            yield from ctrl.fill(inode, lpn, data)
        assert data == backend.store[(inode, lpn)]

    def flow():
        for _ in range(2):
            for lpn in hot:
                yield from read(1, lpn)
        for lpn in range(2 * lay.pages):
            yield from read(2, lpn)

    drive(env, flow(), until_extra=1e-3)
    resident = sum(host.contains(1, lpn) for lpn in hot)
    assert resident >= 0.9 * len(hot)


def _scan_after_hot_reads(hot_ops):
    """Read each hot op (a list of ``(inode, lpn)`` pages) twice, then scan a
    file of twice the cache's size sequentially; return the fraction of hot
    pages still resident."""
    env, lay, host, ctrl, backend = build(pages=256, buckets=32)
    hot = [key for op in hot_ops for key in op]
    for key in hot:
        backend.store[key] = b"h" * 4096
    for lpn in range(2 * lay.pages):
        backend.store[(2, lpn)] = b"s" * 4096

    def read(inode, lpn):
        data = yield from host.read(inode, lpn, 4096)
        if data is None:
            data = backend.store[(inode, lpn)]
            yield env.timeout(5e-6)
            yield from ctrl.fill(inode, lpn, data)
        assert data == backend.store[(inode, lpn)]

    def flow():
        for _ in range(2):
            for op in hot_ops:
                for key in op:
                    yield from read(*key)
        for lpn in range(2 * lay.pages):
            yield from read(2, lpn)

    drive(env, flow(), until_extra=1e-3)
    return sum(host.contains(*key) for key in hot) / len(hot)


def test_repeatedly_read_one_page_files_survive_a_scan():
    """A one-page file opens with a fast start (offset 0 of an unseen inode);
    its re-reads are second accesses, not stream pages (DESIGN.md §9.7)."""
    ops = [[(100 + k, 0)] for k in range(32)]
    assert _scan_after_hot_reads(ops) >= 0.9


def test_hot_8k_blocks_read_at_random_survive_a_scan():
    """Random 8 KiB reads move two consecutive pages.  The second page only
    looks like a stream until the run passes one backend block, so hot blocks
    keep both pages through a scan (DESIGN.md §9.7)."""
    blocks = list(range(0, 640, 40))
    random.Random(1).shuffle(blocks)
    ops = [[(1, b), (1, b + 1)] for b in blocks]
    assert _scan_after_hot_reads(ops) >= 0.9


def test_host_writes_are_never_marked_used_once():
    """A write stream's dirty pages keep CLOCK's second chance (evicting one
    costs a synchronous write-back); the same pages read back as a stream are
    marked."""
    env, lay, host, ctrl, backend = build()

    def marked():
        return sorted(
            lay.entry_key(idx)[1]
            for idx in range(lay.pages)
            if idx in ctrl._policy_of_idx(idx)._once
        )

    def flow():
        for lpn in range(8):
            yield from host.write(3, lpn, bytes([lpn]) * 4096)
        yield env.timeout(50e-6)
        assert marked() == []
        for lpn in range(8):
            assert (yield from host.read(3, lpn, 4096)) == bytes([lpn]) * 4096
        yield env.timeout(50e-6)

    drive(env, flow())
    assert marked() == list(range(2, 8))
