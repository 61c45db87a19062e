"""DIF (data-integrity-field) tests: flush-time guard tags catch corruption."""

import pytest

from repro.cache.control import CacheControlPlane
from repro.cache.hostplane import HostCachePlane
from repro.cache.layout import CacheLayout
from repro.core import build_dpc_system
from repro.host.vfs import O_CREAT
from repro.kvfs import schema
from repro.params import default_params
from repro.sim.core import Environment
from repro.sim.cpu import CpuPool
from repro.sim.memory import MemoryArena
from repro.sim.pcie import PcieLink
from repro.sim.resources import Store


class MutableBackend:
    """A backend whose stored bytes tests can corrupt."""

    def __init__(self, env):
        self.env = env
        self.store: dict[tuple[int, int], bytes] = {}

    def writeback(self, inode, lpn, data):
        yield self.env.timeout(2e-6)
        self.store[(inode, lpn)] = data

    def fetch(self, inode, lpn):
        yield self.env.timeout(2e-6)
        data = self.store.get((inode, lpn))
        return None if data is None else [(lpn, data)]


def build(dif=True):
    env = Environment()
    p = default_params().with_overrides(cache_pages=64, cache_buckets=8)
    arena = MemoryArena(1 << 20)
    link = PcieLink(env, arena)
    cpu = CpuPool(env, 8, switch_cost=0)
    layout = CacheLayout(arena, 64, 4096, 8)
    mailbox = Store(env)
    host = HostCachePlane(env, layout, cpu, p, mailbox)
    backend = MutableBackend(env)
    ctrl = CacheControlPlane(
        env, link, cpu, p, layout, mailbox,
        writeback=backend.writeback, fetch=backend.fetch,
        prefetch_enabled=False, dif_enabled=dif,
    )
    return env, host, ctrl, backend


def run(env, gen):
    return env.run(until=env.process(gen))


def test_flush_records_guard_tags():
    env, host, ctrl, backend = build()

    def flow():
        yield from host.write(1, 0, b"guarded page")
        yield from ctrl.flush_all()

    run(env, flow())
    assert (1, 0) in ctrl._dif


def test_clean_refetch_verifies_ok():
    env, host, ctrl, backend = build()

    def flow():
        yield from host.write(1, 0, b"round trip")
        yield from ctrl.flush_all()
        yield from host.invalidate(1, 0)
        ok = yield from ctrl.fill(1, 0, backend.store[(1, 0)])
        data = yield from host.read(1, 0, 10)
        return ok, data

    ok, data = run(env, flow())
    assert ok is True and data == b"round trip"
    assert ctrl.dif_checks == 1 and ctrl.dif_errors == 0


def test_corrupted_backend_page_is_rejected():
    env, host, ctrl, backend = build()

    def flow():
        yield from host.write(1, 0, b"precious")
        yield from ctrl.flush_all()
        yield from host.invalidate(1, 0)
        # Bit rot in the backend.
        page = bytearray(backend.store[(1, 0)])
        page[0] ^= 0xFF
        backend.store[(1, 0)] = bytes(page)
        ok = yield from ctrl.fill(1, 0, backend.store[(1, 0)])
        return ok

    assert run(env, flow()) is False
    assert ctrl.dif_errors == 1


def test_dif_disabled_accepts_anything():
    env, host, ctrl, backend = build(dif=False)

    def flow():
        yield from host.write(1, 0, b"whatever")
        yield from ctrl.flush_all()
        yield from host.invalidate(1, 0)
        return (yield from ctrl.fill(1, 0, b"\xde\xad" * 2048))

    assert run(env, flow()) is True
    assert ctrl.dif_checks == 0


def test_unknown_page_skips_verification():
    env, host, ctrl, backend = build()

    def flow():
        return (yield from ctrl.fill(9, 9, b"never flushed"))

    assert run(env, flow()) is True
    assert ctrl.dif_checks == 0


def test_dif_drop_clears_tag():
    env, host, ctrl, backend = build()

    def flow():
        yield from host.write(1, 0, b"v1")
        yield from ctrl.flush_all()
        ctrl.dif_drop_range(1, 0, 1)
        yield from host.invalidate(1, 0)
        # Different content would have failed the check; tag is gone.
        return (yield from ctrl.fill(1, 0, b"v2-different"))

    assert run(env, flow()) is True
    assert ctrl.dif_errors == 0


def test_direct_write_in_full_system_drops_stale_tag():
    """End-to-end: buffered write -> flush (tag) -> direct overwrite ->
    re-read must not be rejected as corruption."""
    from repro.host.adapters import O_DIRECT

    sys = build_dpc_system()

    def app():
        f = yield from sys.vfs.open("/kvfs/f", O_CREAT)
        yield from sys.vfs.write(f, 0, b"A" * 4096)
        yield from sys.vfs.fsync(f)  # flush -> DIF tag recorded
        fd = yield from sys.vfs.open("/kvfs/f", O_DIRECT)
        yield from sys.vfs.write(fd, 0, b"B" * 4096)  # direct: tag dropped
        # Invalidate the cached copy, force a backend re-read + fill.
        yield from sys.cache_host.invalidate(f.ino << 1, 0)
        data = yield from sys.vfs.read(f, 0, 4096)
        yield sys.env.timeout(1e-3)
        return data

    data = sys.run_until(app())
    assert data == b"B" * 4096
    assert sys.cache_ctrl.dif_errors == 0


def test_dif_drop_file():
    env, host, ctrl, backend = build()

    def flow():
        for lpn in range(3):
            yield from host.write(7, lpn, b"x")
        yield from ctrl.flush_all()

    run(env, flow())
    assert sum(1 for k in ctrl._dif if k[0] == 7) == 3
    ctrl.dif_drop_file(7)
    assert sum(1 for k in ctrl._dif if k[0] == 7) == 0
