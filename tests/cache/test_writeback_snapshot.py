"""Write-back locks a page for its snapshot, not for its backend round trip
(DESIGN.md §9.5).

The flusher takes a page's ``LOCK_READ``, copies the entry and the page to the
DPU, and unlocks before the backend write.  The page stays ``ST_DIRTY`` until
that write lands; it is then marked clean only if nobody wrote it meanwhile.
While a write-back of a page is in flight no second snapshot of it is taken,
and the evictor and the delegation-recall drop free a page only by a status
CAS ``ST_CLEAN -> ST_FREE``.  Every race is built with a gated backend and
parked events, not with load.
"""

from repro.cache.control import CacheControlPlane
from repro.cache.hostplane import HostCachePlane
from repro.cache.layout import CacheLayout, LOCK_WRITE, ST_CLEAN, ST_DIRTY
from repro.core.testbeds import build_dpc_system
from repro.host.vfs import O_CREAT
from repro.params import default_params
from repro.sim.core import Environment
from repro.sim.cpu import CpuPool
from repro.sim.memory import MemoryArena
from repro.sim.pcie import PcieLink
from repro.sim.resources import Store

PAGE = 4096
INO = 9
LPN = 7
PERIOD = 200e-6
NEVER = 1.0  # a flush period no test reaches: the background flusher stays out


def payload(lpn: int, version: int) -> bytes:
    return f"{lpn}:{version}|".encode().ljust(PAGE, b".")


def version_of(data: bytes) -> int:
    return int(data[: data.index(b"|")].split(b":")[1])


class Backend:
    """Stores what is written back, logs every call, and parks the first
    write-back of a gated key on its event."""

    def __init__(self, env):
        self.env = env
        self.store = {}
        self.calls = []
        self.gates = {}

    def writeback(self, inode, lpn, data):
        self.calls.append((inode, lpn))
        gate = self.gates.pop((inode, lpn), None)
        yield gate if gate is not None else self.env.timeout(5e-6)
        self.store[(inode, lpn)] = bytes(data)


def build(flush_period=NEVER):
    env = Environment()
    p = default_params().with_overrides(
        cache_pages=256, cache_buckets=32, cache_ctrl_shards=4,
        cache_flush_period=flush_period,
    )
    arena = MemoryArena(256 * 5000 + (1 << 20))
    link = PcieLink(env, arena, latency=p.pcie_latency, bandwidth=p.pcie_bandwidth)
    layout = CacheLayout(arena, 256, PAGE, 32)
    mailbox = Store(env)
    host = HostCachePlane(env, layout, CpuPool(env, 8, switch_cost=0), p, mailbox)
    backend = Backend(env)
    ctrl = CacheControlPlane(
        env, link, CpuPool(env, 8, switch_cost=0), p, layout, mailbox,
        writeback=backend.writeback, prefetch_enabled=False,
    )
    return env, link, layout, host, ctrl, backend


def write(env, host, version):
    """One host write of ``LPN``; it must finish within 50 µs."""
    w = env.process(host.write(INO, LPN, payload(LPN, version)))
    env.run(until=env.now + 50e-6)
    assert w.processed


def parked():
    """``LPN`` is dirty and the background flusher's write-back of it is
    parked in the backend -> (env, link, layout, host, ctrl, backend, gate, idx)."""
    env, link, lay, host, ctrl, backend = build(flush_period=PERIOD)
    backend.gates[(INO, LPN)] = gate = env.event()
    write(env, host, 1)
    env.run(until=env.now + 2 * PERIOD)
    idx = host._find(INO, LPN)
    assert backend.calls == [(INO, LPN)] and not backend.store
    assert idx in ctrl._wb_inflight
    return env, link, lay, host, ctrl, backend, gate, idx


# -- (a) a writer does not wait for the backend --------------------------------------


def test_write_behind_a_parked_writeback_does_not_wait_for_it():
    env, link, lay, host, ctrl, backend, gate, idx = parked()
    t0, done_at = env.now, []

    def writer():
        yield from host.write(INO, LPN, payload(LPN, 2))
        done_at.append(env.now)

    env.process(writer())
    env.run(until=t0 + 50e-6)  # the gate stays shut throughout
    assert done_at and done_at[0] - t0 < 10e-6
    assert host.stats.write_lock_retries == 0
    assert lay.entry_status(idx) == ST_DIRTY
    assert version_of(lay.read_page(idx, PAGE)) == 2
    assert backend.calls == [(INO, LPN)] and not backend.store


# -- (b) the page stays dirty, and the next flush carries the newer bytes ------------


def test_next_flush_carries_the_bytes_written_during_the_writeback():
    env, link, lay, host, ctrl, backend, gate, idx = parked()
    write(env, host, 2)  # the page was dirty already: the host posts no hint
    landed = env.all_of([ctrl._wb_inflight[idx]])  # a parked waiter, as fsync is
    gate.succeed()
    env.run(until=landed)
    # The snapshot reached the backend, but the page changed since: still dirty,
    # and its bucket is queued for the flusher again.
    assert version_of(backend.store[(INO, LPN)]) == 1
    assert lay.entry_status(idx) == ST_DIRTY
    bucket = lay.bucket_of(INO, LPN)
    assert bucket in ctrl._shards[ctrl.shard_of_bucket(bucket)].dirty_buckets

    env.run(until=env.now + 2 * PERIOD)
    assert version_of(backend.store[(INO, LPN)]) == 2
    assert lay.entry_status(idx) == ST_CLEAN
    assert backend.calls == [(INO, LPN)] * 2
    assert not ctrl._wb_inflight


# -- (c) one write-back per page at a time -------------------------------------------


def test_flush_of_a_page_in_flight_starts_no_second_writeback():
    env, link, lay, host, ctrl, backend, gate, idx = parked()
    write(env, host, 2)
    before = link.stats.snapshot()
    n, missed = env.run(until=env.process(ctrl._flush_entries([idx])))
    assert (n, missed) == (0, [idx])
    assert link.stats.delta(before).ops() == 0  # not even a lock CAS
    assert backend.calls == [(INO, LPN)]
    assert lay.entry_status(idx) == ST_DIRTY


def test_a_lost_lock_wakes_whoever_parked_on_the_page():
    env, link, lay, host, ctrl, backend = build()
    write(env, host, 1)
    idx = host._find(INO, LPN)
    assert lay.try_lock(idx, LOCK_WRITE)  # a host writer: the flush's CAS loses
    flush = env.process(ctrl._flush_entries([idx]))
    waiter = env.process(ctrl.writebacks_landed())  # parks on the reservation
    env.run(until=env.now + 20e-6)
    assert flush.value == (0, [idx])
    assert waiter.processed and not ctrl._wb_inflight
    assert backend.calls == []


# -- (d) the evictor frees only clean pages ------------------------------------------


def test_evictor_keeps_a_victim_rewritten_during_its_flush():
    env, link, lay, host, ctrl, backend = build()
    write(env, host, 1)
    idx = host._find(INO, LPN)
    backend.gates[(INO, LPN)] = gate = env.event()
    # The victim is the only live page of its bucket, so the evictor flushes it.
    evict = env.process(ctrl._evict_from_bucket(lay.bucket_of(INO, LPN)))
    env.run(until=env.now + 20e-6)
    assert backend.calls == [(INO, LPN)]
    writer = env.process(host.write(INO, LPN, payload(LPN, 2)))

    def open_gate():
        yield env.timeout(30e-6)
        gate.succeed()

    env.process(open_gate())
    env.run(until=env.all_of([evict, writer]))
    assert evict.value is False and ctrl.evictions == 0
    assert host._find(INO, LPN) == idx and lay.entry_status(idx) == ST_DIRTY
    assert version_of(lay.read_page(idx, PAGE)) == 2
    env.run(until=env.process(ctrl.flush_all()))
    assert version_of(backend.store[(INO, LPN)]) == 2


# -- (e) the delegation-recall drop frees only clean pages ---------------------------


def test_recall_drop_keeps_a_page_written_after_it_was_read():
    env, link, lay, host, ctrl, backend = build()
    write(env, host, 1)
    env.run(until=env.process(ctrl.flush_all()))
    idx = host._find(INO, LPN)
    assert lay.entry_status(idx) == ST_CLEAN

    # The drop reads the entry (clean); a host write lands before its lock CAS.
    real = ctrl._dma_read_entry

    def raced(i):
        ent = yield from real(i)
        if i == idx:
            ctrl._dma_read_entry = real
            yield env.process(host.write(INO, LPN, payload(LPN, 2)))
        return ent

    ctrl._dma_read_entry = raced
    dropped = env.run(until=env.process(ctrl.invalidate_inode(INO)))
    assert ctrl._dma_read_entry is real  # the race did happen
    # The write is not lost: the recall writes it back before dropping the page.
    assert dropped == 1 and host._find(INO, LPN) is None
    assert version_of(backend.store[(INO, LPN)]) == 2


# -- (f) truncate runs after the write-back of a page it drops -----------------------


def test_truncate_waits_for_the_writeback_of_a_dropped_page():
    sys_ = build_dpc_system()
    env, ctrl = sys_.env, sys_.cache_ctrl
    gate, parked_at, real = env.event(), [], ctrl.writeback

    def gated(inode, lpn, data):
        if lpn == 3 and not parked_at:
            parked_at.append(env.now)
            yield gate
        yield from real(inode, lpn, data)

    ctrl.writeback = gated

    def app():
        f = yield from sys_.vfs.open("/kvfs/t", O_CREAT)
        yield from sys_.vfs.write(f, 0, b"x" * (4 * PAGE))
        while not parked_at:  # the flusher has page 3 in the backend
            yield env.timeout(ctrl.params.cache_flush_period)
        opened = env.now + 300e-6
        env.process(open_gate(opened))
        yield from sys_.vfs.truncate("/kvfs/t", PAGE)  # drops pages 1..3
        return opened, env.now

    def open_gate(at):
        yield env.timeout(at - env.now)
        gate.succeed()

    opened, truncated = sys_.run_until(app())
    assert truncated > opened
