"""End-to-end virtio-fs/DPFS tests, including the Figure 2(b) 11-DMA count."""

import pytest

from repro.params import default_params
from repro.proto.filemsg import Errno, FileAttr, FileOp, FileRequest, FileResponse
from repro.proto.virtio.fuse import (
    FUSE_MAX_TRANSFER,
    FuseInHeader,
    FuseOutHeader,
    FuseReadIn,
    FuseWriteIn,
)
from repro.proto.virtio.virtiofs import DpfsHal, VirtioFsHost
from repro.proto.virtio.vring import Descriptor, VRING_DESC_F_NEXT, VRING_DESC_F_WRITE, VRing
from repro.sim.core import Environment
from repro.sim.cpu import CpuPool
from repro.sim.memory import MemoryArena
from repro.sim.pcie import PcieLink


def memory_backend(store: dict):
    def backend(_sqe, request: FileRequest, payload: bytes):
        if request.op == FileOp.WRITE:
            store[(request.ino, request.offset)] = payload
            yield from ()
            return FileResponse(size=len(payload)), b""
        if request.op == FileOp.READ:
            data = store.get((request.ino, request.offset), b"\0" * request.length)
            yield from ()
            return FileResponse(size=len(data)), data
        if request.op == FileOp.STAT:
            yield from ()
            return FileResponse(attr=FileAttr(ino=request.ino, size=5)), b""
        yield from ()
        return FileResponse(status=Errno.ENOENT), b""

    return backend


def build(params=None):
    env = Environment()
    p = params or default_params()
    arena = MemoryArena(64 * 1024 * 1024)
    link = PcieLink(env, arena, latency=p.pcie_latency, bandwidth=p.pcie_bandwidth)
    host_cpu = CpuPool(env, p.host_cores, switch_cost=p.host_switch_cost)
    dpu_cpu = CpuPool(env, p.dpu_cores, perf=p.dpu_perf, switch_cost=p.dpu_switch_cost)
    host = VirtioFsHost(env, arena, link, host_cpu, p)
    store: dict = {}
    hal = DpfsHal(env, link, dpu_cpu, p, host.rings, memory_backend(store))
    return env, link, host, hal, store


# ---------------------------------------------------------------- FUSE codecs
def test_fuse_in_header_roundtrip():
    h = FuseInHeader(100, 16, 7, 42, 1000, 1000, 4321)
    assert FuseInHeader.unpack(h.pack()) == h
    assert len(h.pack()) == 40


def test_fuse_out_header_roundtrip():
    h = FuseOutHeader(24, -2, 9)
    assert FuseOutHeader.unpack(h.pack()) == h
    assert len(h.pack()) == 16


def test_fuse_read_write_bodies_roundtrip():
    r = FuseReadIn(3, 4096, 8192)
    assert FuseReadIn.unpack(r.pack()) == r
    w = FuseWriteIn(3, 0, 4096)
    assert FuseWriteIn.unpack(w.pack()) == w


# ---------------------------------------------------------------- vring
def test_vring_descriptor_roundtrip():
    d = Descriptor(0x1000, 4096, VRING_DESC_F_NEXT | VRING_DESC_F_WRITE, 7)
    assert Descriptor.unpack(d.pack()) == d
    assert d.has_next and d.device_writable and not d.indirect


def test_vring_alloc_free_descriptors():
    env = Environment()
    arena = MemoryArena(1024 * 1024)
    ring = VRing(env, arena, 8)
    ids = ring.alloc_descs(8)
    assert len(set(ids)) == 8
    with pytest.raises(RuntimeError):
        ring.alloc_descs(1)
    ring.free_descs(ids)
    assert len(ring.alloc_descs(8)) == 8


def test_vring_publish_updates_avail_ring():
    env = Environment()
    arena = MemoryArena(1024 * 1024)
    ring = VRing(env, arena, 8)
    ring.publish(5)
    assert arena.read_u16(ring.avail_idx_addr) == 1
    assert arena.read_u16(ring.avail_ring_addr(0)) == 5


# ---------------------------------------------------------------- transport
def test_write_then_read_roundtrip():
    env, _, host, _, store = build()
    out = {}

    def flow():
        data = bytes(range(256)) * 32  # 8 KiB
        resp, _ = yield from host.submit(
            FileRequest(FileOp.WRITE, ino=1, offset=0, length=len(data)),
            write_payload=data,
        )
        assert resp.ok
        resp, payload = yield from host.submit(
            FileRequest(FileOp.READ, ino=1, offset=0, length=len(data)),
            read_len=len(data),
        )
        out["payload"] = payload

    p = env.process(flow())
    env.run(until=p)
    assert out["payload"] == bytes(range(256)) * 32


def test_zero_byte_read_returns_no_stale_bytes():
    """fuse_out_header.len carries the byte count, as FUSE does."""
    env, _, host, _, store = build()
    store[(1, 0)] = b"x" * 4096

    def flow():
        _, first = yield from host.submit(
            FileRequest(FileOp.READ, ino=1, offset=0, length=4096), read_len=4096
        )
        store[(1, 0)] = b"y" * 10
        _, short = yield from host.submit(
            FileRequest(FileOp.READ, ino=1, offset=0, length=4096), read_len=4096
        )
        store[(1, 0)] = b""
        _, empty = yield from host.submit(
            FileRequest(FileOp.READ, ino=1, offset=0, length=4096), read_len=4096
        )
        return first, short, empty

    first, short, empty = env.run(until=env.process(flow()))
    assert first == b"x" * 4096
    assert short == b"y" * 10
    assert empty == b""


def test_read_error_propagates_through_fuse():
    env, _, host, hal, _ = build()

    def backend(_sqe, request, payload):
        yield from ()
        return FileResponse(status=Errno.EIO), b""

    hal.backend = backend

    def flow():
        return (
            yield from host.submit(
                FileRequest(FileOp.READ, ino=1, offset=0, length=4096), read_len=4096
            )
        )

    resp, payload = env.run(until=env.process(flow()))
    assert resp.status == Errno.EIO and payload == b""


def test_8k_write_takes_exactly_11_dmas():
    """Paper Figure 2(b): the virtio-fs walk costs 11 DMA operations."""
    env, link, host, _, _ = build()

    def flow():
        snap = link.stats.snapshot()
        yield from host.submit(
            FileRequest(FileOp.WRITE, ino=1, offset=0, length=8192),
            write_payload=b"z" * 8192,
        )
        d = link.stats.delta(snap)
        assert d.ops() == 11, f"expected 11 DMAs, saw {d.ops()}: {d.by_tag}"
        # chain: cmd desc + 2 data descs + out desc = 4 descriptor reads
        assert d.by_tag["desc-read"] == 4
        assert d.by_tag["avail-idx"] >= 1
        assert d.by_tag["write-data"] == 1
        assert d.by_tag["used-entry"] == 1
        assert d.by_tag["used-idx"] == 1

    p = env.process(flow())
    env.run(until=p)


def test_8k_read_takes_exactly_11_dmas():
    env, link, host, _, _ = build()

    def flow():
        yield from host.submit(
            FileRequest(FileOp.WRITE, ino=3, offset=0, length=8192),
            write_payload=b"r" * 8192,
        )
        snap = link.stats.snapshot()
        yield from host.submit(
            FileRequest(FileOp.READ, ino=3, offset=0, length=8192), read_len=8192
        )
        d = link.stats.delta(snap)
        assert d.ops() == 11, f"expected 11 DMAs, saw {d.ops()}: {d.by_tag}"

    p = env.process(flow())
    env.run(until=p)


def test_virtio_uses_more_dmas_than_nvmefs():
    """The core M2 claim: 2-3x more DMA operations than nvme-fs."""
    env, link, host, _, _ = build()

    def flow():
        snap = link.stats.snapshot()
        yield from host.submit(
            FileRequest(FileOp.WRITE, ino=1, offset=0, length=8192),
            write_payload=b"z" * 8192,
        )
        return link.stats.delta(snap).ops()

    p = env.process(flow())
    virtio_dmas = env.run(until=p)
    assert virtio_dmas / 4 >= 2.0  # vs nvme-fs's 4


def test_large_transfer_uses_indirect_descriptors():
    env, link, host, _, _ = build()

    def flow():
        snap = link.stats.snapshot()
        yield from host.submit(
            FileRequest(FileOp.WRITE, ino=1, offset=0, length=65536),
            write_payload=b"L" * 65536,
        )
        d = link.stats.delta(snap)
        # 16 data pages would be 16+ descriptor reads if direct; indirect
        # keeps the walk bounded.
        assert d.by_tag.get("indirect-table", 0) == 1
        assert d.by_tag["desc-read"] == 1

    p = env.process(flow())
    env.run(until=p)


def test_transfer_above_fuse_max_rejected():
    env, _, host, _, _ = build()

    def flow():
        yield from host.submit(
            FileRequest(FileOp.WRITE, ino=1, offset=0, length=FUSE_MAX_TRANSFER + 1),
            write_payload=b"x" * (FUSE_MAX_TRANSFER + 1),
        )

    p = env.process(flow())
    with pytest.raises(ValueError):
        env.run(until=p)


def test_metadata_op_roundtrip():
    env, _, host, _, _ = build()
    out = {}

    def flow():
        resp, _ = yield from host.submit(FileRequest(FileOp.STAT, ino=11))
        out["attr"] = resp.attr

    p = env.process(flow())
    env.run(until=p)
    assert out["attr"].ino == 11


def test_error_propagates_through_fuse():
    env, _, host, _, _ = build()
    out = {}

    def flow():
        resp, _ = yield from host.submit(FileRequest(FileOp.UNLINK, ino=1, name=b"no"))
        out["status"] = resp.status

    p = env.process(flow())
    env.run(until=p)
    assert out["status"] == Errno.ENOENT


def test_single_hal_thread_bounds_concurrency():
    """DPFS's single HAL thread caps in-flight chains at its pipeline depth:
    4x the pipeline's worth of requests takes ~4x as long, unlike the
    multi-queue nvme-fs path."""

    def run_batch(n):
        env, _, host, hal, _ = build()
        done = []

        def worker(i):
            yield from host.submit(
                FileRequest(FileOp.WRITE, ino=i, offset=0, length=4096),
                write_payload=b"s" * 4096,
            )
            done.append(i)

        for i in range(n):
            env.process(worker(i))
        env.run()
        assert hal.requests_processed == n
        return env.now

    p = default_params()
    t_small = run_batch(p.virtio_hal_pipeline)
    t_large = run_batch(4 * p.virtio_hal_pipeline)
    assert t_large > t_small * 2.0


def test_nvmefs_outperforms_virtio_at_high_concurrency():
    """Figure 6's headline: 2-3x IOPS advantage for nvme-fs at 32 threads."""
    from repro.proto.nvme.ini import NvmeFsInitiator
    from repro.proto.nvme.tgt import NvmeFsTarget

    def run_virtio(n):
        env, _, host, _, _ = build()
        done = []

        def worker(i):
            for _ in range(4):
                yield from host.submit(
                    FileRequest(FileOp.WRITE, ino=i, offset=0, length=4096),
                    write_payload=b"v" * 4096,
                )
            done.append(i)

        for i in range(n):
            env.process(worker(i))
        env.run()
        return (n * 4) / env.now

    def run_nvme(n):
        env = Environment()
        p = default_params()
        arena = MemoryArena(64 * 1024 * 1024)
        link = PcieLink(env, arena, latency=p.pcie_latency, bandwidth=p.pcie_bandwidth)
        host_cpu = CpuPool(env, p.host_cores, switch_cost=p.host_switch_cost)
        dpu_cpu = CpuPool(env, p.dpu_cores, perf=p.dpu_perf, switch_cost=p.dpu_switch_cost)
        ini = NvmeFsInitiator(env, arena, link, host_cpu, p)
        NvmeFsTarget(env, link, dpu_cpu, p, ini.queues, memory_backend({}))
        done = []

        def worker(i):
            for _ in range(4):
                yield from ini.submit(
                    FileRequest(FileOp.WRITE, ino=i, offset=0, length=4096),
                    write_payload=b"n" * 4096,
                    submitter_id=i,
                )
            done.append(i)

        for i in range(n):
            env.process(worker(i))
        env.run()
        return (n * 4) / env.now

    virtio_iops = run_virtio(32)
    nvme_iops = run_nvme(32)
    assert nvme_iops / virtio_iops >= 2.0


def test_pcie_page_setup_param_reaches_the_link():
    """``pcie_page_setup`` is the per-page surcharge of virtio's paged DMAs:
    dropping it to 0 makes an 8 KiB virtio-fs write faster."""
    import dataclasses

    from repro.experiments.fig6_raw import run_one

    def write_us(page_setup):
        p = dataclasses.replace(default_params(), pcie_page_setup=page_setup)
        return run_one("virtio-fs", "write", 8192, 1, 4, p)["lat_us"]

    assert write_us(0.0) < write_us(default_params().pcie_page_setup)
