"""A prefetch installs only into the claim it made (ROADMAP item 1, bug 4).

While a prefetch's backend fetch is in flight its pending entry can be
written, evicted and claimed again for another page.  The late install must
notice that the entry is no longer its claim, not land its bytes under the
new key.  The race is built by hand: the backend fetch is parked on an event,
so no load and no timing luck is involved.
"""

from repro.cache.control import CacheControlPlane
from repro.cache.hostplane import HostCachePlane
from repro.cache.layout import CacheLayout, ST_CLEAN, ST_INVALID
from repro.params import default_params
from repro.sim.core import Environment
from repro.sim.cpu import CpuPool
from repro.sim.memory import MemoryArena
from repro.sim.pcie import PcieLink
from repro.sim.resources import Store

PAGE = 4096
A, B = (11, 5), (22, 9)  # (inode, lpn) of the two files' pages
BYTES = {A: b"A" * PAGE, B: b"B" * PAGE}


def build():
    """One bucket with one entry: every claim lands on entry 0."""
    env = Environment()
    p = default_params().with_overrides(cache_pages=1, cache_buckets=1)
    arena = MemoryArena(1 << 20)
    link = PcieLink(env, arena, latency=p.pcie_latency, bandwidth=p.pcie_bandwidth)
    layout = CacheLayout(arena, 1, PAGE, 1)
    mailbox = Store(env)
    host = HostCachePlane(env, layout, CpuPool(env, 8, switch_cost=0), p, mailbox)
    gates = {A: env.event(), B: env.event()}

    def fetch_run(inode, first_lpn, npages):
        yield gates[(inode, first_lpn)]
        return [(first_lpn, BYTES[(inode, first_lpn)])]

    def writeback(inode, lpn, data):
        yield env.timeout(5e-6)

    ctrl = CacheControlPlane(
        env, link, CpuPool(env, 8, switch_cost=0), p, layout, mailbox,
        writeback=writeback, fetch_run=fetch_run,
    )
    return env, layout, host, ctrl, gates


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
