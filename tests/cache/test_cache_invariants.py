"""Property tests: hybrid-cache invariants under randomized concurrency.

After any interleaving of host reads/writes/invalidates with DPU demand
fills, the flusher, prefetcher, and evictions, the shared region must
satisfy:

* free-count conservation: header ``free`` == entries with status FREE;
* uniqueness: no two live entries hold the same <inode, lpn>, whichever
  plane inserted them;
* quiescence: all locks released once every process finishes;
* durability: every page ever written is either live in the cache with the
  latest data or its latest data reached the backend.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cache.control import CacheControlPlane
from repro.cache.hostplane import HostCachePlane
from repro.cache.layout import (
    CacheLayout,
    LOCK_FREE,
    ST_CLEAN,
    ST_DIRTY,
    ST_FREE,
    ST_INVALID,
)
from repro.params import default_params
from repro.sim.core import Environment
from repro.sim.cpu import CpuPool
from repro.sim.memory import MemoryArena
from repro.sim.pcie import PcieLink
from repro.sim.resources import Store
from tests.conftest import schedule_budget


class Backend:
    def __init__(self, env):
        self.env = env
        self.store: dict[tuple[int, int], bytes] = {}

    def writeback(self, inode, lpn, data):
        yield self.env.timeout(3e-6)
        self.store[(inode, lpn)] = data

    def fetch(self, inode, lpn):
        yield self.env.timeout(3e-6)
        data = self.store.get((inode, lpn))
        return None if data is None else [(lpn, data)]


def build(pages=16, buckets=2):
    env = Environment()
    p = default_params().with_overrides(cache_flush_period=50e-6)
    arena = MemoryArena(1 << 20)
    link = PcieLink(env, arena)
    cpu = CpuPool(env, 8, switch_cost=0)
    layout = CacheLayout(arena, pages, 4096, buckets)
    mailbox = Store(env)
    host = HostCachePlane(env, layout, cpu, p, mailbox)
    backend = Backend(env)
    ctrl = CacheControlPlane(
        env, link, cpu, p, layout, mailbox,
        writeback=backend.writeback, fetch=backend.fetch, prefetch_enabled=True,
    )
    return env, layout, host, ctrl, backend


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["write", "read", "fill", "invalidate", "flush", "pause"]),
        st.integers(0, 2),  # inode
        st.integers(0, 11),  # lpn
        st.integers(0, 255),  # fill byte / version
        st.integers(0, 3),  # worker id
    ),
    min_size=1,
    max_size=40,
)


@settings(
    schedule_budget(),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=ops_strategy)
def test_cache_invariants_random_concurrency(ops):
    env, layout, host, ctrl, backend = build()
    #: the latest value written per key, per the program order we impose
    latest: dict[tuple[int, int], bytes] = {}
    by_worker: dict[int, list] = {}
    for op in ops:
        by_worker.setdefault(op[4], []).append(op)

    def worker(my_ops):
        for kind, inode, lpn, fill, _w in my_ops:
            if kind == "write":
                data = bytes([fill]) * 64
                yield from host.write(inode, lpn, data)
                latest[(inode, lpn)] = data  # workers don't overlap keys below
            elif kind == "read":
                got = yield from host.read(inode, lpn, 64)
                if got is not None and (inode, lpn) in latest:
                    pass  # freshness asserted at quiescence
            elif kind == "fill":
                # A demand fill of what a read returns now (zeros if the
                # backend never saw the page), spawned off the worker as the
                # DPU dispatcher spawns it; the worker goes on 0-9 µs later,
                # so its next write of the key can land anywhere in the insert.
                data = backend.store.get((inode, lpn), bytes(64))
                env.process(ctrl.fill(inode, lpn, data))
                yield env.timeout(fill % 10 * 1e-6)
            elif kind == "invalidate":
                yield from host.invalidate(inode, lpn)
                latest.pop((inode, lpn), None)
            elif kind == "flush":
                yield from ctrl.flush_all()
            else:
                yield env.timeout(20e-6)

    # Partition keys per worker to keep 'latest' well-defined: worker w only
    # touches lpns where lpn % 4 == w.
    procs = []
    for w, my_ops in by_worker.items():
        mine = [op for op in my_ops if op[2] % 4 == w]
        if mine:
            procs.append(env.process(worker(mine)))
    if procs:
        env.run(until=env.all_of(procs))
    # Let the background machinery settle, then flush everything.
    env.run(until=env.now + 5e-3)
    env.run(until=env.process(ctrl.flush_all()))

    # ---- invariants -----------------------------------------------------
    statuses = [layout.entry_status(i) for i in range(layout.pages)]
    # 1. Free-count conservation.
    assert layout.free_count() == sum(1 for s in statuses if s == ST_FREE)
    # 2. No duplicate live keys.
    live = [
        layout.entry_key(i)
        for i in range(layout.pages)
        if statuses[i] in (ST_CLEAN, ST_DIRTY, ST_INVALID)
    ]
    assert len(live) == len(set(live)), f"duplicate keys in cache: {live}"
    # 3. All locks free at quiescence.
    for i in range(layout.pages):
        assert layout.read_entry(i)["lock"] == LOCK_FREE
    # 4. Durability/freshness: each latest write is visible in cache or backend.
    for (inode, lpn), data in latest.items():
        found = None
        for i in range(layout.pages):
            if statuses[i] in (ST_CLEAN, ST_DIRTY) and layout.entry_key(i) == (inode, lpn):
                found = layout.read_page(i, len(data))
                break
        if found is None:
            found = backend.store.get((inode, lpn), b"")[: len(data)]
        assert found == data, f"lost write for {(inode, lpn)}"
