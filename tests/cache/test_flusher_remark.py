"""A dirty page the flusher has to skip is re-queued, not forgotten.

The flusher clears a bucket's dirty hint before it looks at the bucket.  A
page it then cannot take — locked when the bucket is read, or lost in the CAS
round — used to have no way back onto the list: the host posts no second
hint for a page that is already dirty, and the straggler sweep counts only
idle periods, which a shard under sustained writes does not have.  Both races
are built by hand with a held ``LOCK_WRITE``.
"""

import pytest

from repro.cache.control import CacheControlPlane
from repro.cache.hostplane import HostCachePlane
from repro.cache.layout import CacheLayout, LOCK_WRITE, ST_CLEAN, ST_DIRTY
from repro.params import default_params
from repro.sim.core import Environment
from repro.sim.cpu import CpuPool
from repro.sim.memory import MemoryArena
from repro.sim.pcie import PcieLink
from repro.sim.resources import Store

PAGE = 4096


def build():
    """One shard over 8 buckets, so every bucket shares one flusher."""
    env = Environment()
    p = default_params().with_overrides(cache_pages=64, cache_buckets=8, cache_ctrl_shards=1)
    arena = MemoryArena(1 << 20)
    link = PcieLink(env, arena, latency=p.pcie_latency, bandwidth=p.pcie_bandwidth)
    layout = CacheLayout(arena, 64, PAGE, 8)
    mailbox = Store(env)
    host = HostCachePlane(env, layout, CpuPool(env, 8, switch_cost=0), p, mailbox)
    store = {}

    def writeback(inode, lpn, data):
        yield env.timeout(5e-6)
        store[(inode, lpn)] = data

    ctrl = CacheControlPlane(
        env, link, CpuPool(env, 8, switch_cost=0), p, layout, mailbox,
        writeback=writeback, prefetch_enabled=False,
    )
    return env, p, layout, host, ctrl, store


@pytest.mark.parametrize("race", ["locked-at-scan", "lost-cas"])
def test_skipped_dirty_page_is_flushed_once_its_lock_is_released(race):
    env, p, lay, host, ctrl, store = build()
    period = p.cache_flush_period
    victim = (1, 0)
    other = next(
        (2, lpn) for lpn in range(64) if lay.bucket_of(2, lpn) != lay.bucket_of(*victim)
    )

    def neighbour():
        """Sustained writes elsewhere in the shard: no period is idle."""
        while True:
            yield from host.write(*other, b"n" * PAGE)
            yield env.timeout(period)

    env.run(until=env.process(host.write(*victim, b"v" * PAGE)))
    idx = host._find(*victim)
    if race == "locked-at-scan":
        assert lay.try_lock(idx, LOCK_WRITE)
    else:
        # The bucket read sees the page free; the host takes it before the CAS.
        real = ctrl._try_lock_read

        def beaten(i):
            if i == idx:
                assert lay.try_lock(idx, LOCK_WRITE)
                ctrl._try_lock_read = real
            return (yield from real(i))

        ctrl._try_lock_read = beaten
    env.process(neighbour())

    env.run(until=1.5 * period)  # one flusher round has come and gone
    assert lay.entry_status(idx) == ST_DIRTY and victim not in store
    assert lay.unlock(idx, LOCK_WRITE)  # it was ours: the race did happen

    env.run(until=3.5 * period)  # two further rounds
    assert lay.entry_status(idx) == ST_CLEAN
    assert store[victim] == b"v" * PAGE
