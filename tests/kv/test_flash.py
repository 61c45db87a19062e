"""Flash device model: CMT, GC, small-value inlining, adaptive threshold."""

import pytest

from repro.kv.client import KvClient
from repro.kv.flash import FlashKvModel
from repro.kv.server import KvCluster
from repro.params import default_params
from repro.sim.core import Environment
from repro.sim.network import Fabric


def run(env, gen):
    p = env.process(gen)
    return env.run(until=p)


def make_model(**overrides):
    params = default_params().with_overrides(kv_flash_model=True, **overrides)
    env = Environment(seed=params.seed)
    return env, FlashKvModel(env, params)


# -- CMT --------------------------------------------------------------------


def test_cmt_miss_then_hit():
    env, m = make_model()

    def flow():
        yield from m.charge_get(b"k1", b"v" * 100)
        t_miss = env.now
        yield from m.charge_get(b"k1", b"v" * 100)
        return t_miss, env.now - t_miss

    t_miss, t_hit = run(env, flow())
    assert m.stats.cmt_misses == 1 and m.stats.cmt_hits == 1
    # The miss paid a translation-page flash read; the hit paid DRAM.
    assert t_hit < t_miss


def test_cmt_lru_eviction():
    env, m = make_model(kv_cmt_entries=2)

    def flow():
        yield from m.charge_get(b"a", None)
        yield from m.charge_get(b"b", None)
        yield from m.charge_get(b"a", None)  # refresh a: b becomes LRU
        yield from m.charge_get(b"c", None)  # evicts b
        yield from m.charge_get(b"a", None)  # still cached
        yield from m.charge_get(b"b", None)  # miss again

    run(env, flow())
    assert m.stats.cmt_misses == 4  # a, b, c, b
    assert m.stats.cmt_hits == 2  # a, a


# -- write path + GC --------------------------------------------------------


def test_small_puts_coalesce_into_shared_programs():
    env, m = make_model(kv_flash_block_pages=1 << 20)  # keep GC out of the count
    page = m.params.kv_flash_page

    def flow():
        # MAP_ENTRY_BYTES each: many mapping updates share one page program.
        for i in range(page // FlashKvModel.MAP_ENTRY_BYTES):
            yield from m.charge_put(b"k%03d" % i, b"x" * (2 * page))

    run(env, flow())
    # Each put programs 2 data pages; the 128 mapping entries add exactly
    # one more page in total.
    n = m.params.kv_flash_page // FlashKvModel.MAP_ENTRY_BYTES
    assert m.stats.page_writes == 2 * n + 1


def _reclaim_time(p):
    """One block's reclaim: the erase, then a read + program per live page."""
    live = int(p.kv_flash_block_pages * p.kv_flash_gc_live)
    return p.kv_flash_erase_us + live * (p.kv_flash_read_us + p.kv_flash_write_us)


def _put_pages(m, key, pages):
    return m.charge_put(key, b"z" * (pages * m.params.kv_flash_page))


def _track_gc(env):
    """Record every GC process spawned on ``env``."""
    spawned, spawn = [], env.process

    def process(gen, name=""):
        proc = spawn(gen, name)
        if name.endswith("-gc"):
            spawned.append(proc)
        return proc

    env.process = process
    return spawned


def test_gc_fires_per_erase_block():
    env, m = make_model(kv_flash_block_pages=4, kv_flash_gc_live=0.5)
    p = m.params

    def flow():
        yield from _put_pages(m, b"big", 4)
        return env.now

    # The put that fills the block pays its own programs and nothing else.
    assert run(env, flow()) == pytest.approx(4 * p.kv_flash_write_us)
    assert m.stats.gc_stalls == 0
    env.run()
    assert m.stats.erases == 1
    assert m.stats.gc_page_moves == 2  # 50% of a 4-page block relocated
    assert env.now == pytest.approx(4 * p.kv_flash_write_us + _reclaim_time(p))
    assert m.stats.gc_busy_time == pytest.approx(_reclaim_time(p))


def test_one_program_call_owes_a_reclaim_per_block_crossed():
    env, m = make_model(kv_flash_block_pages=4)
    run(env, _put_pages(m, b"big", 16))
    env.run()
    assert m.stats.erases == 4
    assert m._since_gc == 0


def test_gc_work_is_conserved():
    env, m = make_model(kv_flash_block_pages=8, kv_flash_gc_live=0.25)

    def flow():
        for i in range(37):
            yield from _put_pages(m, b"k%02d" % i, 1 + i % 3)

    run(env, flow())
    env.run()
    s = m.stats
    programs = s.page_writes - s.gc_page_moves
    assert programs >= 37
    assert s.erases == programs // 8
    assert s.gc_page_moves == s.erases * 2
    assert s.page_reads == s.gc_page_moves
    assert s.gc_busy_time == pytest.approx(s.erases * _reclaim_time(m.params))


def test_put_past_the_reserve_parks_until_the_reclaim_ends():
    env, m = make_model(kv_flash_block_pages=1, kv_flash_gc_live=0.0)
    p, reserve = m.params, FlashKvModel.GC_RESERVE_BLOCKS
    done = []

    def flow():
        # Every one-page put crosses a block; the first `reserve` fill the
        # backlog while reclaim 1 is still erasing, the next one overruns it.
        for i in range(reserve + 1):
            yield from _put_pages(m, b"k%d" % i, 1)
            done.append(env.now)

    run(env, flow())
    write = p.kv_flash_write_us
    assert done[:reserve] == pytest.approx([(i + 1) * write for i in range(reserve)])
    # ... and resumes at the instant the first reclaim (begun at `write`) ends.
    assert done[reserve] == pytest.approx(write + _reclaim_time(p))
    assert m.stats.gc_stalls == 1
    assert m.stats.gc_stall_time == pytest.approx(done[reserve] - (reserve + 1) * write)
    env.run()
    out = m.metrics("kv.flash")
    assert out["kv.flash.gc_stalls"] == 1
    assert out["kv.flash.gc_stall_time"] == m.stats.gc_stall_time
    assert out["kv.flash.gc_backlog_max"] == reserve
    assert out["kv.flash.gc_busy_time"] == pytest.approx(
        (reserve + 1) * _reclaim_time(p)
    )


def test_sustained_put_rate_is_bounded_by_serial_reclaim():
    env, m = make_model(kv_flash_block_pages=2, kv_flash_gc_live=0.5)
    writers, per_writer = 16, 12

    def writer(w):
        for i in range(per_writer):
            yield from _put_pages(m, b"w%02d-%02d" % (w, i), 1)

    env.run(until=env.all_of([env.process(writer(w)) for w in range(writers)]))
    blocks = writers * per_writer // 2
    floor = (blocks - FlashKvModel.GC_RESERVE_BLOCKS) * _reclaim_time(m.params)
    assert env.now >= floor
    assert m.stats.gc_stalls > 0
    assert m.stats.gc_backlog_max == FlashKvModel.GC_RESERVE_BLOCKS


def test_one_gc_process_at_a_time_and_none_at_quiescence():
    env, m = make_model(kv_flash_block_pages=2)
    spawned = _track_gc(env)

    def flow():
        for burst in range(3):
            for i in range(6):
                yield from _put_pages(m, b"k", 1)
                assert sum(not g.triggered for g in spawned) == (m._backlog > 0)
            assert m._backlog > 1  # several blocks owed, still one process
            yield env.timeout(1.0)  # long enough to drain the backlog
            assert all(g.triggered for g in spawned)

    run(env, flow())
    env.run()
    # Spawned when the backlog leaves 0, gone when it is back: once a burst.
    assert len(spawned) == 3
    assert all(g.triggered for g in spawned) and m._backlog == 0
    assert env.peek() == float("inf")


def test_get_during_a_reclaim_is_not_delayed():
    env, m = make_model(kv_flash_block_pages=4)
    p = m.params

    def flow():
        yield from _put_pages(m, b"big", 4)
        assert m._backlog == 1  # the reclaim is running from here on
        t0 = env.now
        yield from m.charge_get(b"big", b"z" * (4 * p.kv_flash_page))
        return env.now - t0

    # CMT hit (the put cached the mapping) + the four data pages.
    assert run(env, flow()) == pytest.approx(
        p.kv_cmt_hit_us + 4 * p.kv_flash_read_us
    )
    assert m.stats.erases == 1 and m._backlog == 1


# -- inlining ----------------------------------------------------------------


def test_inlined_get_skips_data_pages():
    env, m = make_model(kv_inline_enabled=True, kv_inline_max=512)

    def flow():
        yield from m.charge_put(b"small", b"s" * 256)  # inlined
        yield from m.charge_put(b"large", b"L" * 8192)  # page-resident
        r0 = m.stats.page_reads
        yield from m.charge_get(b"small", b"s" * 256)
        small_reads = m.stats.page_reads - r0
        r0 = m.stats.page_reads
        yield from m.charge_get(b"large", b"L" * 8192)
        large_reads = m.stats.page_reads - r0
        return small_reads, large_reads

    small_reads, large_reads = run(env, flow())
    assert m.stats.inline_puts == 1
    assert m.stats.inline_gets == 1
    assert small_reads == 0  # CMT hit: value travels with the mapping entry
    assert large_reads == 8192 // m.params.kv_flash_page


def test_inline_disabled_always_reads_data_pages():
    env, m = make_model(kv_inline_enabled=False)

    def flow():
        yield from m.charge_put(b"small", b"s" * 256)
        r0 = m.stats.page_reads
        yield from m.charge_get(b"small", b"s" * 256)
        return m.stats.page_reads - r0

    assert run(env, flow()) == 1
    assert m.stats.inline_puts == 0


def test_adaptive_threshold_follows_read_traffic():
    env, m = make_model(
        kv_inline_enabled=True, kv_inline_max=1024, kv_inline_adapt_window=64
    )
    m.inline_threshold = 0  # start pessimistic; adaptation must raise it

    def flow():
        # Read-heavy small values: inlining clearly pays.
        for i in range(16):
            yield from m.charge_put(b"k%02d" % i, b"v" * 200)
        for _ in range(8):
            for i in range(16):
                yield from m.charge_get(b"k%02d" % i, b"v" * 200)

    run(env, flow())
    assert m.stats.adaptations >= 1
    assert m.inline_threshold >= 256  # covers the 200-byte population


# -- end to end through the shard server -------------------------------------


def _latency_probe(flash_overrides):
    params = default_params().with_overrides(
        kv_shards=2, kv_flash_model=True, **flash_overrides
    )
    env = Environment(seed=params.seed)
    fabric = Fabric(
        env, latency=params.net_latency, default_bandwidth=params.net_bandwidth
    )
    cluster = KvCluster(env, fabric, params)
    fabric.attach("client")
    client = KvClient(fabric, "client", cluster.shard_names())

    def flow():
        for i in range(32):
            yield from client.put(b"attr%04d" % i, b"a" * 256)
        # Warm pass fills the CMT, timed pass measures steady-state gets.
        for i in range(32):
            yield from client.get(b"attr%04d" % i)
        t0 = env.now
        for i in range(32):
            yield from client.get(b"attr%04d" % i)
        return (env.now - t0) / 32

    p = env.process(flow())
    lat = env.run(until=p)
    return lat, cluster


def test_inlining_cuts_small_value_get_latency():
    lat_off, _ = _latency_probe({"kv_inline_enabled": False})
    lat_on, cluster_on = _latency_probe(
        {"kv_inline_enabled": True, "kv_inline_max": 512}
    )
    assert lat_on < lat_off
    # The saving is the data-page read each get skipped.
    saved = lat_off - lat_on
    assert saved == pytest.approx(default_params().kv_flash_read_us, rel=0.2)
    assert sum(s.flash.stats.inline_gets for s in cluster_on.shards) > 0


def test_flash_metrics_exported():
    env, m = make_model()

    def flow():
        yield from m.charge_put(b"k", b"v" * 100)
        yield from m.charge_get(b"k", b"v" * 100)

    run(env, flow())
    out = m.metrics("kv.flash")
    assert out["kv.flash.cmt_hits"] == 1
    assert out["kv.flash.page_reads"] == 1  # the (non-inlined) data page
    assert "kv.flash.inline_threshold" in out
