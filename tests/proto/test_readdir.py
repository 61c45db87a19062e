"""READDIR over both transports: dirents ride the read buffer, one page each."""

from hypothesis import example, given, settings, strategies as st

from repro.core import build_dpc_system
from repro.dpu.dispatch import IoDispatch
from repro.host.fsadapter import DpcAdapter, DpfsAdapter
from repro.params import default_params
from repro.proto.filemsg import MAX_NAME, Errno, FileOp, FileResponse
from repro.proto.nvme.ini import NvmeFsInitiator
from repro.proto.nvme.tgt import NvmeFsTarget
from repro.proto.virtio.virtiofs import DpfsHal, VirtioFsHost
from repro.sim.core import Environment
from repro.sim.cpu import CpuPool
from repro.sim.memory import MemoryArena
from repro.sim.pcie import PcieLink

PAGE = 4096
#: packed dirent = ino (8) + name length (2) + is_dir (1) + name
DIRENT_FIXED = 11


def listing_backend(entries):
    """A stub DPU backend serving one fixed listing with the dispatch pager."""

    def backend(_sqe, request, payload):
        yield from ()
        if request.op != FileOp.READDIR:
            return FileResponse(status=Errno.EINVAL), b""
        return IoDispatch._paginate_dirents(entries, request.offset, request.length)

    return backend


def rig(kind, backend):
    """Host adapter over one transport, ``backend`` behind it; returns
    ``(env, adapter, commands)`` where ``commands()`` counts DPU-side commands."""
    env = Environment()
    p = default_params()
    arena = MemoryArena(16 * 1024 * 1024)
    link = PcieLink(env, arena, latency=p.pcie_latency, bandwidth=p.pcie_bandwidth)
    host_cpu = CpuPool(env, 4)
    dpu_cpu = CpuPool(env, 4)
    if kind == "nvme-fs":
        ini = NvmeFsInitiator(env, arena, link, host_cpu, p, num_queues=1)
        tgt = NvmeFsTarget(env, link, dpu_cpu, p, ini.queues, backend)
        return env, DpcAdapter(env, ini, host_cpu, p), lambda: tgt.commands_processed
    host = VirtioFsHost(env, arena, link, host_cpu, p, num_queues=1)
    hal = DpfsHal(env, link, dpu_cpu, p, host.rings, backend)
    return env, DpfsAdapter(env, host, host_cpu, p), lambda: hal.requests_processed


def min_pages(entries) -> int:
    """Fewest page-sized commands an in-order listing can take (greedy is
    optimal when order is fixed); an empty directory still costs one."""
    pages, used = 1, 0
    for name, _ in entries:
        rec = DIRENT_FIXED + len(name)
        if used and used + rec > PAGE:
            pages, used = pages + 1, 0
        used += rec
    return pages


def list_dir(kind, entries):
    env, adapter, commands = rig(kind, listing_backend(entries))
    got = env.run(until=env.process(adapter.readdir(7)))
    return got, commands()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, MAX_NAME), max_size=600))
@example([1] * 600)
@example([MAX_NAME] * 600)
@example([MAX_NAME] * 3 + [PAGE - 4 * DIRENT_FIXED - 3 * MAX_NAME])  # one page, full to the byte
def test_listing_is_complete_in_order_in_fewest_page_commands(sizes):
    entries = [(bytes([97 + i % 26]) * n, i + 1) for i, n in enumerate(sizes)]
    got, commands = list_dir("nvme-fs", entries)
    assert got == entries
    assert commands == min_pages(entries)


def test_virtio_readdir_returns_the_same_listing():
    entries = [(f"entry-{i:04d}".encode() * (1 + i % 40), i + 1) for i in range(300)]
    nvme, nvme_cmds = list_dir("nvme-fs", entries)
    virtio, virtio_cmds = list_dir("virtio-fs", entries)
    assert nvme == virtio == entries
    assert nvme_cmds == virtio_cmds == min_pages(entries) > 1


def test_empty_directory_lists_as_empty_on_both_transports():
    for kind in ("nvme-fs", "virtio-fs"):
        assert list_dir(kind, []) == ([], 1)


def test_empty_kvfs_directory_lists_as_empty():
    sys = build_dpc_system(with_cache=False)

    def app():
        d = yield from sys.kvfs_adapter.mkdir(0, b"empty", 0o755)
        return (yield from sys.kvfs_adapter.readdir(d.ino))

    assert sys.run_until(app()) == []


def test_one_page_listing_is_one_command_of_four_dmas():
    """A 64-entry directory on an idle queue costs what a 4 KiB read costs.

    With dirents squeezed into 360-byte slices of the response header it
    took 3 commands, 12 DMAs, 3 doorbells, 3 interrupts and 3 KV scans.
    """
    sys = build_dpc_system(with_cache=False)

    def kv_scans():
        return sum(s.engine.stats.scans for s in sys.kv_cluster.shards)

    def app():
        a = sys.kvfs_adapter
        d = yield from a.mkdir(0, b"small", 0o755)
        for t in range(64):
            yield from a.mkdir(d.ino, f"t{t}".encode(), 0o755)
        cmds, scans = sys.tgt.commands_processed, kv_scans()
        snap = sys.link.stats.snapshot()
        listing = yield from a.readdir(d.ino)
        delta = sys.link.stats.delta(snap)
        return listing, sys.tgt.commands_processed - cmds, delta, kv_scans() - scans

    listing, cmds, d, scans = sys.run_until(app())
    assert sorted(n for n, _ in listing) == sorted(f"t{t}".encode() for t in range(64))
    assert cmds == 1
    assert d.ops() == 4, d.by_tag
    assert d.doorbells == 1 and d.interrupts == 1
    assert d.by_tag["read-data"] == 1 and "resp-header" not in d.by_tag
    assert scans == 1
