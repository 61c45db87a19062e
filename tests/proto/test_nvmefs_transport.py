"""End-to-end nvme-fs transport tests, including the Figure 4 DMA count."""

import pytest

from repro.params import default_params
from repro.proto.filemsg import Errno, FileAttr, FileOp, FileRequest, FileResponse
from repro.proto.nvme.ini import NvmeFsInitiator
from repro.proto.nvme.sqe import ReqType
from repro.proto.nvme.tgt import NvmeFsTarget
from repro.sim.core import Environment
from repro.sim.cpu import CpuPool
from repro.sim.memory import MemoryArena
from repro.sim.pcie import PcieLink


def memory_backend(store: dict):
    """A 'virtual client' backend answering from DPU memory (paper §4.1)."""

    def backend(sqe, request: FileRequest, payload: bytes):
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
            return FileResponse(attr=FileAttr(ino=request.ino, size=123)), b""
        yield from ()
        return FileResponse(status=Errno.EINVAL), b""

    return backend


def build(num_queues=2, params=None):
    env = Environment()
    p = params or default_params()
    arena = MemoryArena(64 * 1024 * 1024)
    link = PcieLink(env, arena, latency=p.pcie_latency, bandwidth=p.pcie_bandwidth)
    host_cpu = CpuPool(env, p.host_cores, switch_cost=p.host_switch_cost)
    dpu_cpu = CpuPool(env, p.dpu_cores, perf=p.dpu_perf, switch_cost=p.dpu_switch_cost)
    ini = NvmeFsInitiator(env, arena, link, host_cpu, p, num_queues=num_queues)
    store: dict = {}
    tgt = NvmeFsTarget(env, link, dpu_cpu, p, ini.queues, memory_backend(store))
    return env, link, ini, tgt, store


def test_write_then_read_roundtrip():
    env, _, ini, _, store = build()
    out = {}

    def flow():
        data = bytes(range(256)) * 32  # 8 KiB
        resp, _ = yield from ini.submit(
            FileRequest(FileOp.WRITE, ino=1, offset=0, length=len(data)),
            write_payload=data,
        )
        assert resp.ok and resp.size == 8192
        resp, payload = yield from ini.submit(
            FileRequest(FileOp.READ, ino=1, offset=0, length=len(data)),
            read_len=len(data),
        )
        out["payload"] = payload

    p = env.process(flow())
    env.run(until=p)
    assert out["payload"] == bytes(range(256)) * 32
    assert store[(1, 0)] == out["payload"]


def test_8k_write_takes_exactly_4_dmas():
    """Paper Figure 4: SQE fetch + header read + data read + CQE write."""
    env, link, ini, _, _ = build()

    def flow():
        snap = link.stats.snapshot()
        yield from ini.submit(
            FileRequest(FileOp.WRITE, ino=1, offset=0, length=8192),
            write_payload=b"z" * 8192,
        )
        d = link.stats.delta(snap)
        assert d.ops() == 4, f"expected 4 DMAs, saw {d.ops()}: {d.by_tag}"
        # Control TLPs (doorbell, interrupt) are not DMAs: exactly one each.
        assert d.doorbells == 1 and d.interrupts == 1
        dmas = {k: v for k, v in d.by_tag.items() if k not in ("sq-doorbell", "cq-irq")}
        assert dmas == {
            "sqe-fetch": 1,
            "cmd-header": 1,
            "write-data": 1,
            "cqe-write": 1,
        }

    p = env.process(flow())
    env.run(until=p)


def test_8k_read_takes_exactly_4_dmas():
    env, link, ini, _, _ = build()

    def flow():
        yield from ini.submit(
            FileRequest(FileOp.WRITE, ino=2, offset=0, length=8192),
            write_payload=b"q" * 8192,
        )
        snap = link.stats.snapshot()
        yield from ini.submit(
            FileRequest(FileOp.READ, ino=2, offset=0, length=8192), read_len=8192
        )
        d = link.stats.delta(snap)
        assert d.ops() == 4, f"expected 4 DMAs, saw {d.ops()}: {d.by_tag}"
        assert d.doorbells == 1 and d.interrupts == 1
        dmas = {k: v for k, v in d.by_tag.items() if k not in ("sq-doorbell", "cq-irq")}
        assert dmas == {
            "sqe-fetch": 1,
            "cmd-header": 1,
            "read-data": 1,
            "cqe-write": 1,
        }

    p = env.process(flow())
    env.run(until=p)


def test_metadata_op_returns_attr_via_response_header():
    env, _, ini, _, _ = build()
    out = {}

    def flow():
        resp, _ = yield from ini.submit(FileRequest(FileOp.STAT, ino=9))
        out["attr"] = resp.attr

    p = env.process(flow())
    env.run(until=p)
    assert out["attr"].ino == 9
    assert out["attr"].size == 123


def test_error_status_propagates():
    env, _, ini, _, _ = build()
    out = {}

    def flow():
        resp, _ = yield from ini.submit(FileRequest(FileOp.MKDIR, ino=1, name=b"x"))
        out["status"] = resp.status

    p = env.process(flow())
    env.run(until=p)
    assert out["status"] == Errno.EINVAL


def test_multi_queue_spreads_submitters():
    env, _, ini, tgt, _ = build(num_queues=4)
    done = []

    def worker(i):
        resp, _ = yield from ini.submit(
            FileRequest(FileOp.WRITE, ino=i, offset=0, length=4096),
            write_payload=b"w" * 4096,
            submitter_id=i,
        )
        assert resp.ok
        done.append(i)

    for i in range(8):
        env.process(worker(i))
    env.run()
    assert sorted(done) == list(range(8))
    assert tgt.commands_processed == 8
    # Each of the 4 queues saw 2 submissions.
    assert [qp.submitted for qp in ini.queues] == [2, 2, 2, 2]


def test_concurrent_pipelining_beats_serial_on_one_queue():
    """Queue-depth pipelining: 16 concurrent ops complete in far less than
    16x the single-op latency."""
    env1, _, ini1, _, _ = build(num_queues=1)

    def one(ini, env, results):
        def flow():
            t0 = env.now
            yield from ini.submit(
                FileRequest(FileOp.WRITE, ino=1, offset=0, length=4096),
                write_payload=b"a" * 4096,
            )
            results.append(env.now - t0)

        return flow

    r1 = []
    p = env1.process(one(ini1, env1, r1)())
    env1.run(until=p)
    single_lat = r1[0]

    env2, _, ini2, _, _ = build(num_queues=1)
    r2 = []
    for i in range(16):
        env2.process(one(ini2, env2, r2)())
    env2.run()
    assert len(r2) == 16
    assert env2.now < 16 * single_lat * 0.7


def test_zero_length_ops():
    env, _, ini, _, _ = build()
    out = {}

    def flow():
        resp, payload = yield from ini.submit(
            FileRequest(FileOp.READ, ino=1, offset=0, length=0), read_len=0
        )
        out["resp"] = resp
        out["payload"] = payload

    p = env.process(flow())
    env.run(until=p)
    assert out["payload"] == b""


def test_zero_byte_read_completion_returns_no_stale_bytes():
    """The payload is exactly the completed byte count, even when it is 0."""
    env = Environment()
    p = default_params()
    arena = MemoryArena(16 * 1024 * 1024)
    link = PcieLink(env, arena)
    ini = NvmeFsInitiator(env, arena, link, CpuPool(env, 4), p, num_queues=1)
    eof = 100

    def backend(sqe, request, payload):
        yield from ()
        data = (b"x" * eof)[request.offset : request.offset + request.length]
        return FileResponse(size=len(data)), data

    NvmeFsTarget(env, link, CpuPool(env, 4), p, ini.queues, backend)

    def flow():
        _, first = yield from ini.submit(
            FileRequest(FileOp.READ, ino=1, offset=0, length=4096), read_len=4096
        )
        _, past_eof = yield from ini.submit(
            FileRequest(FileOp.READ, ino=1, offset=8192, length=4096), read_len=4096
        )
        return first, past_eof

    first, past_eof = env.run(until=env.process(flow()))
    assert first == b"x" * eof
    assert past_eof == b""


def test_in_flight_tracking():
    env, _, ini, _, _ = build()
    assert ini.in_flight() == 0

    def flow():
        yield from ini.submit(
            FileRequest(FileOp.WRITE, ino=1, offset=0, length=64), write_payload=b"x" * 64
        )

    p = env.process(flow())
    env.run(until=p)
    assert ini.in_flight() == 0


def test_dispatch_bit_reaches_backend():
    env = Environment()
    p = default_params()
    arena = MemoryArena(16 * 1024 * 1024)
    link = PcieLink(env, arena)
    host_cpu = CpuPool(env, 4)
    dpu_cpu = CpuPool(env, 4)
    seen = []

    def backend(sqe, request, payload):
        seen.append(sqe.req_type)
        yield from ()
        return FileResponse(), b""

    ini = NvmeFsInitiator(env, arena, link, host_cpu, p, num_queues=1)
    NvmeFsTarget(env, link, dpu_cpu, p, ini.queues, backend)

    def flow():
        yield from ini.submit(
            FileRequest(FileOp.STAT, ino=1), req_type=ReqType.DISTRIBUTED
        )
        yield from ini.submit(
            FileRequest(FileOp.STAT, ino=1), req_type=ReqType.STANDALONE
        )

    pr = env.process(flow())
    env.run(until=pr)
    assert seen == [ReqType.DISTRIBUTED, ReqType.STANDALONE]
