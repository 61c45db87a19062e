"""``flush_all`` is a snapshot sweep (DESIGN.md §9.4).

fsync owes the pages that are dirty when it is called and nothing about later
writes: one burst scan per shard names them, at most ``_SYNC_WINDOW`` of them
are in flight per shard, and only pages it missed are scanned for again.
Every assertion is a count or a simulated instant; the races are built with
parked locks and a gated backend, not by load.  Writer pacing is drawn from
the master seed, so CI's seed matrix replays the cases at three phases.
"""

import random

import pytest

from repro.cache import control
from repro.cache.control import CacheControlPlane
from repro.cache.hostplane import HostCachePlane
from repro.cache.layout import CacheLayout, LOCK_WRITE, ST_DIRTY
from repro.params import default_params
from repro.sim.core import Environment
from repro.sim.cpu import CpuPool
from repro.sim.memory import MemoryArena
from repro.sim.pcie import PcieLink
from repro.sim.resources import Store

PAGE = 4096
INO = 9
NEVER = 1.0  # a flush period no test reaches: the background flusher stays out


def payload(lpn: int, version: int) -> bytes:
    return f"{lpn}:{version}|".encode().ljust(PAGE, b".")


def version_of(data: bytes) -> int:
    return int(data[: data.index(b"|")].split(b":")[1])


class Backend:
    """Stores what is written back; counts live calls per control-plane shard
    and parks the first write-back of a gated key on its event."""

    def __init__(self, env, layout):
        self.env = env
        self.layout = layout
        self.ctrl = None
        self.store = {}
        self.gates = {}
        self.live = {}
        self.peak = {}

    def writeback(self, inode, lpn, data):
        sid = self.ctrl.shard_of_bucket(self.layout.bucket_of(inode, lpn))
        self.live[sid] = self.live.get(sid, 0) + 1
        self.peak[sid] = max(self.peak.get(sid, 0), self.live[sid])
        gate = self.gates.pop((inode, lpn), None)
        yield gate if gate is not None else self.env.timeout(5e-6)
        self.store[(inode, lpn)] = bytes(data)
        self.live[sid] -= 1


def build(shards=4, flush_period=NEVER, breaker=None, pages=256, buckets=32):
    env = Environment()
    p = default_params().with_overrides(
        cache_pages=pages, cache_buckets=buckets, cache_ctrl_shards=shards,
        cache_flush_period=flush_period,
    )
    arena = MemoryArena(pages * 5000 + (1 << 20))
    link = PcieLink(env, arena, latency=p.pcie_latency, bandwidth=p.pcie_bandwidth)
    layout = CacheLayout(arena, pages, PAGE, buckets)
    mailbox = Store(env)
    host = HostCachePlane(env, layout, CpuPool(env, 8, switch_cost=0), p, mailbox)
    backend = Backend(env, layout)
    ctrl = CacheControlPlane(
        env, link, CpuPool(env, 8, switch_cost=0), p, layout, mailbox,
        writeback=backend.writeback, prefetch_enabled=False, breaker=breaker,
    )
    backend.ctrl = ctrl
    return env, p, link, layout, host, ctrl, backend


def fill(env, host, lpns, version=1):
    def flow():
        for lpn in lpns:
            yield from host.write(INO, lpn, payload(lpn, version))

    env.run(until=env.process(flow()))


def scans(link, since) -> int:
    return link.stats.delta(since).by_tag.get("meta-scan", 0)


def count_lost_locks(ctrl) -> list:
    """Wrap the write-back lock CAS; the returned list grows by one per loss."""
    lost, real = [], ctrl._try_lock_read

    def counted(idx):
        ok = yield from real(idx)
        if not ok:
            lost.append(idx)
        return ok

    ctrl._try_lock_read = counted
    return lost


# -- (a) termination under writers that never pause ---------------------------------


def _sync_under_writers(stop: float):
    env, p, link, lay, host, ctrl, backend = build()
    lpns = list(range(24))
    fill(env, host, lpns)
    lost = count_lost_locks(ctrl)
    t0 = env.now

    def writer(w: int):
        rng = random.Random(p.seed * 1000 + w)
        version = 1
        while env.now < t0 + stop:
            version += 1
            for lpn in lpns[w::4]:
                yield from host.write(INO, lpn, payload(lpn, version))
                yield env.timeout(rng.uniform(1e-6, 3e-6))

    for w in range(4):
        env.process(writer(w))
    before = link.stats.snapshot()
    n = env.run(until=env.process(ctrl.flush_all()))
    assert ctrl.nshards == 4
    return env.now - t0, n, scans(link, before), len(lost)


def test_sync_terminates_under_writers_that_never_pause():
    took, n, nscans, lost = _sync_under_writers(stop=2e-3)
    assert n >= 24
    assert took < 2e-3  # the writers were still re-dirtying when it returned
    # one scan per shard, plus at most one per lock lost to a writer
    assert 4 <= nscans <= min(4 + lost, 2 * 4)
    # ... and how long the writers go on afterwards changes nothing
    assert _sync_under_writers(stop=8e-3) == (took, n, nscans, lost)


# -- (b) everything dirty at the call is durable at return --------------------------


def test_pages_dirty_at_the_call_are_durable_at_return():
    env, p, link, lay, host, ctrl, backend = build(flush_period=200e-6)
    held, inflight = 3, 40  # 40's sibling in its 8 KiB backend block stays clean
    lpns = [*range(16), inflight]
    # ``inflight`` is picked up by the background flusher, whose backend call parks.
    backend.gates[(INO, inflight)] = gate = env.event()
    fill(env, host, [inflight])
    env.run(until=env.now + 2 * p.cache_flush_period)
    assert backend.live and not backend.store  # locked, in the backend, parked
    fill(env, host, [lpn for lpn in lpns if lpn != inflight])
    fill(env, host, lpns[:8], version=2)  # rewritten once: call-time bytes are v2

    # A host writer holds LOCK_WRITE on ``held`` across the sweep's scan.
    idx = host._find(INO, held)
    assert lay.try_lock(idx, LOCK_WRITE)

    def release():
        yield env.timeout(70e-6)
        lay.gen_begin_write(idx)
        lay.write_page(idx, payload(held, 3))
        lay.gen_end_write(idx)
        lay.unlock(idx, LOCK_WRITE)

    def open_gate():
        yield env.timeout(5e-3)
        gate.succeed()

    owed = {
        lay.entry_key(i)[1]: version_of(lay.read_page(i, PAGE))
        for i in range(lay.pages)
        if lay.entry_status(i) == ST_DIRTY
    }
    assert set(owed) == set(lpns)
    t0 = env.now
    env.process(release())
    env.process(open_gate())
    env.run(until=env.process(ctrl.flush_all()))

    # The in-flight page is owed too: the sweep parks until its write-back
    # lands, it does not poll twelve times and give up.
    assert env.now >= t0 + 5e-3
    assert env.now < t0 + 5e-3 + p.cache_flush_period
    for lpn, version in owed.items():
        assert version_of(backend.store[(INO, lpn)]) >= version, lpn
    assert version_of(backend.store[(INO, held)]) == 3
    assert not ctrl._wb_inflight


# -- (c) a clean cache costs one DMA per shard ---------------------------------------


@pytest.mark.parametrize("shards", [1, 4])
def test_clean_cache_costs_one_burst_scan_per_shard(shards):
    env, p, link, lay, host, ctrl, backend = build(shards=shards)
    fill(env, host, range(8))
    env.run(until=env.process(ctrl.flush_all()))
    before = link.stats.snapshot()
    assert env.run(until=env.process(ctrl.flush_all())) == 0
    spent = link.stats.delta(before)
    assert spent.by_tag == {"meta-scan": shards}
    assert spent.ops() == shards


# -- (d) the pipeline is bounded -----------------------------------------------------


def test_at_most_sync_window_writebacks_in_flight_per_shard():
    env, p, link, lay, host, ctrl, backend = build()
    fill(env, host, range(96))
    assert env.run(until=env.process(ctrl.flush_all())) == 96
    assert len(backend.store) == 96
    assert backend.peak == {sid: control._SYNC_WINDOW for sid in range(ctrl.nshards)}


# -- (e) a dead backend bounds the retries -------------------------------------------


def test_open_breaker_returns_with_pages_still_dirty():
    class Open:
        def allow(self):
            return False

    env, p, link, lay, host, ctrl, backend = build(breaker=Open())
    fill(env, host, range(12))
    before = link.stats.snapshot()
    t0 = env.now
    env.run(until=env.process(ctrl.flush_all()))
    assert env.now - t0 < 1e-3
    assert ctrl.nshards < scans(link, before) <= 12 * ctrl.nshards
    assert ctrl.dirty_pages() == 12
    assert not backend.store and ctrl.writeback_skipped >= 12
