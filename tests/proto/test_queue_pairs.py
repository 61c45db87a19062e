"""NvmeQueuePair bookkeeping and big-directory protocol edge cases."""

import pytest

from repro.core import build_dpc_system
from repro.proto.nvme.queues import NvmeQueuePair
from repro.proto.nvme.sqe import CQE_SIZE, SQE_SIZE
from repro.sim.core import Environment
from repro.sim.memory import MemoryArena


def test_queue_pair_ring_addressing_wraps():
    env = Environment()
    arena = MemoryArena(1 << 20)
    qp = NvmeQueuePair(env, arena, qid=3, depth=8)
    assert qp.sqe_addr(0) == qp.sq_base
    assert qp.sqe_addr(8) == qp.sq_base  # wraps at depth
    assert qp.sqe_addr(9) == qp.sq_base + SQE_SIZE
    assert qp.cqe_addr(17) == qp.cq_base + CQE_SIZE


def test_queue_pair_cid_allocation_unique_among_pending():
    env = Environment()
    arena = MemoryArena(1 << 20)
    qp = NvmeQueuePair(env, arena, qid=0, depth=128)
    cids = set()
    for _ in range(128):
        cid = qp.alloc_cid()
        qp.pending[cid] = object()
        assert cid not in cids
        cids.add(cid)


def test_queue_pair_rejects_zero_depth():
    env = Environment()
    arena = MemoryArena(1 << 20)
    with pytest.raises(ValueError):
        NvmeQueuePair(env, arena, qid=0, depth=0)


def test_readdir_pagination_large_directory():
    """A 200-entry directory pages through the READDIR read buffer."""
    sys = build_dpc_system()

    def app():
        yield from sys.vfs.mkdir("/kvfs/big")
        from repro.host.vfs import O_CREAT

        for i in range(200):
            f = yield from sys.vfs.open(f"/kvfs/big/entry-{i:04d}", O_CREAT)
            yield from sys.vfs.close(f)
        return (yield from sys.vfs.readdir("/kvfs/big"))

    entries = sys.run_until(app())
    assert len(entries) == 200
    assert [n for n, _ in entries] == sorted(n for n, _ in entries)


def test_readdir_long_names_fit_header_region():
    """Names of hundreds of bytes list whole (dirents ride the read buffer)."""
    sys = build_dpc_system()

    def app():
        from repro.host.vfs import O_CREAT

        yield from sys.vfs.mkdir("/kvfs/longnames")
        names = ["x" * 300, "y" * 500, "z" * 900]
        for n in names:
            f = yield from sys.vfs.open(f"/kvfs/longnames/{n}", O_CREAT)
            yield from sys.vfs.close(f)
        return (yield from sys.vfs.readdir("/kvfs/longnames"))

    entries = sys.run_until(app())
    assert sorted(len(n) for n, _ in entries) == [300, 500, 900]
