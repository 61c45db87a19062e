"""The DPU's pending-claim insert: read-ahead and demand fills share it.

A prefetch installs only into the claim it made (ROADMAP item 1, bug 4):
while its backend fetch is in flight its pending entry can be written,
evicted and claimed again for another page, and the late install must notice
that the entry is no longer its claim.  A DPU insert and a host write of one
key each publish, then look again, so the key never ends up in two live
entries (DESIGN.md §9.6).  A DPU insert into a full bucket evicts a clean
page, never a dirty one.  The races are built by hand: the backend fetch is
parked on an event, the host write starts at a fixed instant, so no load and
no timing luck is involved.  A read that finds the key pending sleeps on the
entry and wakes at the instant the claim is installed or given back.
"""

import pytest

from repro.cache.control import CacheControlPlane
from repro.cache.hostplane import HostCachePlane
from repro.cache.layout import CacheLayout, LOCK_WRITE, ST_CLEAN, ST_DIRTY, ST_INVALID
from repro.params import default_params
from repro.sim.core import Environment
from repro.sim.cpu import CpuPool
from repro.sim.memory import MemoryArena
from repro.sim.pcie import PcieLink
from repro.sim.resources import Store

PAGE = 4096
A, B = (11, 5), (22, 9)  # (inode, lpn) of the two files' pages
BYTES = {A: b"A" * PAGE, B: b"B" * PAGE}


def build(pages=1, writebacks=None, **overrides):
    """One bucket of ``pages`` entries (default one: every claim lands on
    entry 0); ``writebacks`` logs the keys the backend is asked to write."""
    env = Environment()
    p = default_params().with_overrides(cache_pages=pages, cache_buckets=1, **overrides)
    arena = MemoryArena(1 << 20)
    link = PcieLink(env, arena, latency=p.pcie_latency, bandwidth=p.pcie_bandwidth)
    layout = CacheLayout(arena, pages, PAGE, 1)
    mailbox = Store(env)
    host = HostCachePlane(env, layout, CpuPool(env, 8, switch_cost=0), p, mailbox)
    gates = {A: env.event(), B: env.event()}

    def fetch_run(inode, first_lpn, npages):
        yield gates[(inode, first_lpn)]
        return [(first_lpn, BYTES[(inode, first_lpn)])]

    def writeback(inode, lpn, data):
        if writebacks is not None:
            writebacks.append((inode, lpn))
        yield env.timeout(5e-6)

    ctrl = CacheControlPlane(
        env, link, CpuPool(env, 8, switch_cost=0), p, layout, mailbox,
        writeback=writeback, fetch_run=fetch_run,
    )
    return env, layout, host, ctrl, gates


def live(lay, key=None):
    """Entries that cache a key or have it pending (``key``: only that one)."""
    return [
        i
        for i in range(lay.pages)
        if lay.entry_status(i) in (ST_CLEAN, ST_DIRTY, ST_INVALID)
        and (key is None or lay.entry_key(i) == key)
    ]


def reclaimed():
    """A's prefetch parked in the backend, its entry since written, dropped
    and claimed again by B's prefetch (parked too)."""
    env, lay, host, ctrl, gates = build()

    def prefetch(key):
        proc = env.process(ctrl._prefetch_chunk(key[0], key[1], 1, {key}), name="prefetch")
        env.run(until=env.now + 100e-6)  # long enough to claim, then it parks
        assert (lay.entry_status(0), lay.entry_key(0)) == (ST_INVALID, key)
        return proc

    def write_then_drop():
        yield from host.write(A[0], A[1], b"W" * PAGE)
        assert (yield from host.invalidate(A[0], A[1]))

    first = prefetch(A)
    env.run(until=env.process(write_then_drop()))
    second = prefetch(B)
    return env, lay, host, ctrl, gates, first, second


def test_late_install_does_not_land_under_a_reclaimed_entry():
    env, lay, host, ctrl, gates, first, second = reclaimed()

    # A's fetch returns: its claim is gone, so nothing is installed.
    gates[A].succeed()
    env.run(until=first)
    assert ctrl.prefetched_pages == 0
    assert (lay.entry_status(0), lay.entry_key(0)) == (ST_INVALID, B)

    # B's fetch returns and the host plane reads B's bytes.
    gates[B].succeed()
    env.run(until=second)
    assert ctrl.prefetched_pages == 1
    assert (lay.entry_status(0), lay.entry_key(0)) == (ST_CLEAN, B)
    got = env.run(until=env.process(host.read(B[0], B[1], PAGE)))
    assert got == BYTES[B]


def test_failed_fetch_does_not_free_a_reclaimed_entry():
    """The release path checks the claim the same way as the install."""
    env, lay, _host, ctrl, gates, first, second = reclaimed()
    free_before = lay.free_count()

    gates[A].fail(OSError("backend down"))
    env.run(until=first)
    assert (lay.entry_status(0), lay.entry_key(0)) == (ST_INVALID, B)
    assert lay.free_count() == free_before

    gates[B].succeed()
    env.run(until=second)
    assert ctrl.prefetched_pages == 1
    assert lay.read_page(0, PAGE) == BYTES[B]


# -- a read of a pending entry sleeps until the claim ends ----------------------------


def publish_instants(env, ctrl, watched):
    """Instants at which the control plane's ``watched`` DMA writes land."""
    landed = []
    dma_write = ctrl.link.dma_write

    def traced(addr, data, tag="", paged=False):
        yield from dma_write(addr, data, tag=tag, paged=paged)
        if tag == watched:
            landed.append(env.now)

    ctrl.link.dma_write = traced
    return landed


@pytest.mark.parametrize("outcome", ["installed", "released", "overwritten"])
def test_read_of_a_pending_entry_wakes_when_the_claim_ends(outcome):
    """The reader finds A's read-ahead claim pending and sleeps on it.  It
    wakes at the instant the install publishes the page (and hits), the
    failed fetch's release frees the entry (and misses) or a host write
    unlocks it dirty (and hits the host's bytes), not on the next tick of
    an 8 µs poll."""
    env, lay, host, ctrl, gates = build()
    p = ctrl.params
    landed = publish_instants(env, ctrl, "fill-status" if outcome == "installed" else "claim-free")
    env.process(ctrl._prefetch_chunk(A[0], A[1], 1, {A}), name="prefetch")
    env.run(until=env.now + 100e-6)
    assert (lay.entry_status(0), lay.entry_key(0)) == (ST_INVALID, A)

    def timed_read():
        got = yield from host.read(*A, PAGE)
        return got, env.now

    reader = env.process(timed_read())
    env.run(until=env.now + 13.3e-6)
    if outcome == "installed":
        gates[A].succeed()
    elif outcome == "released":
        gates[A].fail(OSError("backend down"))
    else:
        unlock = lay.unlock

        def traced_unlock(idx, kind):
            landed.append(env.now)
            return unlock(idx, kind)

        lay.unlock = traced_unlock
        env.process(host.write(*A, b"W" * PAGE))
    got, done = env.run(until=reader)
    assert len(landed) == 1
    if outcome == "released":
        assert got is None
        assert done == pytest.approx(landed[0], abs=1e-12)
    else:
        assert got == (BYTES[A] if outcome == "installed" else b"W" * PAGE)
        assert done == pytest.approx(landed[0] + p.host_copy_per_4k, abs=1e-12)


# -- publish, then look again: one key, one live entry ------------------------------


def dpu_insert(ctrl, how, key, data):
    """The DPU side of the race: a demand fill, or a read-ahead claim and its
    install (what ``_prefetch_chunk`` does around the backend fetch)."""
    if how == "fill":
        return (yield from ctrl.fill(*key, data))
    claim = yield from ctrl._claim_pending(*key)
    if claim is None:
        return False
    return (yield from ctrl._install_pending(*claim, *key, data))


@pytest.mark.parametrize(
    "delay, atomic",
    [(3e-6, None), (6e-6, None), (1e-6, 20e-6)],
    ids=["3us", "6us", "1us-slow-host-atomic"],
)
@pytest.mark.parametrize("how", ["fill", "claim"])
def test_host_write_racing_a_dpu_insert_leaves_one_live_entry(how, delay, atomic):
    """The host write starts while the DPU insert is between its bucket read
    and its claim: before the re-checks both sides claimed a free entry of
    the two, and at 6 µs the host read back the DPU's stale page.  The host
    publishes first at 3 and 6 µs, and the DPU's re-read sees it; with a
    20 µs host atomic the host's claim spans the DPU's whole insert, and
    the host's re-walk sees the DPU's entry."""
    overrides = {} if atomic is None else {"host_atomic_cost": atomic}
    env, lay, host, ctrl, _gates = build(pages=2, **overrides)
    stale, mine = b"S" * PAGE, b"M" * PAGE
    dpu = env.process(dpu_insert(ctrl, how, A, stale))
    env.run(until=env.now + delay)
    writer = env.process(host.write(*A, mine))
    env.run(until=env.all_of([dpu, writer]))
    assert len(live(lay, A)) == 1
    assert lay.free_count() == 1
    assert env.run(until=env.process(host.read(*A, PAGE))) == mine


def test_dpu_inserts_of_one_key_leave_at_most_one_live_entry():
    """Six inserts of one key, four of them starting together: at most one
    installs (claims that publish at one instant see each other and all give
    back), none is left pending, and the free count balances."""
    env, lay, host, ctrl, _gates = build(pages=4)

    def late(how, delay):
        yield env.timeout(delay)
        return (yield from dpu_insert(ctrl, how, A, BYTES[A]))

    procs = [
        env.process(late(how, delay))
        for how in ("fill", "claim")
        for delay in (0, 0, 1e-6)
    ]
    env.run(until=env.all_of(procs))
    installed = sum(p.value for p in procs)
    assert installed <= 1 and live(lay) == live(lay, A) and len(live(lay)) == installed
    assert lay.free_count() == 4 - installed


# -- a DPU insert evicts a clean page, never a dirty one ------------------------------


def test_fill_into_a_full_bucket_of_clean_pages_evicts_one():
    env, lay, host, ctrl, _gates = build(pages=2)
    for lpn in (1, 2):
        assert env.run(until=env.process(ctrl.fill(A[0], lpn, b"c" * PAGE)))
    assert lay.free_count() == 0
    assert env.run(until=env.process(ctrl.fill(*A, BYTES[A])))
    assert ctrl.evictions == 1
    assert lay.free_count() == 0 and len(live(lay)) == 2
    assert env.run(until=env.process(host.read(*A, PAGE))) == BYTES[A]


@pytest.mark.parametrize("how", ["fill", "claim"])
def test_dpu_insert_into_dirty_or_locked_pages_is_dropped(how):
    """No clean, unlocked victim: the insert gives up and writes nothing
    back (before, a read-ahead claim flushed a dirty victim to make room)."""
    writebacks = []
    # The flusher stays out: the dirty page must still be dirty when the
    # insert looks for a victim.
    env, lay, host, ctrl, _gates = build(pages=2, writebacks=writebacks, cache_flush_period=1.0)
    env.run(until=env.process(host.write(A[0], 1, b"d" * PAGE)))
    assert env.run(until=env.process(ctrl.fill(A[0], 2, b"c" * PAGE)))
    locked = host._find(A[0], 2)
    assert lay.try_lock(locked, LOCK_WRITE)  # a host writer, mid-write
    before = [(i, lay.read_entry(i)) for i in range(lay.pages)]
    assert env.run(until=env.process(dpu_insert(ctrl, how, A, BYTES[A]))) is False
    assert [(i, lay.read_entry(i)) for i in range(lay.pages)] == before
    assert ctrl.evictions == 0 and writebacks == []
    lay.unlock(locked, LOCK_WRITE)
    assert host._find(*A) is None and lay.entry_status(host._find(A[0], 1)) == ST_DIRTY
