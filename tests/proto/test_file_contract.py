"""The file-completion contract: nvme-fs and virtio-fs deliver one outcome.

One stub DPU backend answers every :class:`FileOp` in six shapes.  Each
answer goes through both transports, and each must hand the host exactly
the ``(response, payload)`` that :meth:`FileResponse.settle` put on the
wire: the transports frame the outcome, they never reshape it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dpu.dispatch import IoDispatch
from repro.params import default_params
from repro.proto.filemsg import Errno, FileAttr, FileOp, FileRequest, FileResponse
from repro.proto.nvme.ini import NvmeFsInitiator
from repro.proto.nvme.tgt import NvmeFsTarget
from repro.proto.virtio.virtiofs import DpfsHal, VirtioFsHost
from repro.sim.core import Environment
from repro.sim.cpu import CpuPool
from repro.sim.memory import MemoryArena
from repro.sim.pcie import PcieLink

PAGE = 4096
CASES = ("ok", "error", "zero-byte", "past-EOF", "aux-only", "full-page")
#: ops whose result is an attribute block
ATTR_OPS = {FileOp.LOOKUP, FileOp.CREATE, FileOp.MKDIR, FileOp.STAT}


def transport(kind, backend):
    """``submit(request, write_payload, read_len)`` over one transport."""
    env = Environment()
    p = default_params()
    arena = MemoryArena(4 * 1024 * 1024)
    link = PcieLink(env, arena, latency=p.pcie_latency, bandwidth=p.pcie_bandwidth)
    host_cpu = CpuPool(env, 2)
    dpu_cpu = CpuPool(env, 2)
    if kind == "nvme-fs":
        host = NvmeFsInitiator(env, arena, link, host_cpu, p, num_queues=1)
        NvmeFsTarget(env, link, dpu_cpu, p, host.queues, backend)
    else:
        host = VirtioFsHost(env, arena, link, host_cpu, p, num_queues=1)
        DpfsHal(env, link, dpu_cpu, p, host.rings, backend)

    def submit(request, write_payload=b"", read_len=0):
        return env.run(until=env.process(host.submit(request, write_payload, read_len)))

    return submit


def answering(answer):
    """A backend returning ``answer(request, payload)`` and logging what it saw."""
    seen = []

    def backend(_sqe, request, payload):
        seen.append((request.op, request.ino, request.offset, payload))
        yield from ()
        return answer(request, payload)

    backend.seen = seen
    return backend


def both(answer, request, write_payload=b"", read_len=0):
    """Run one request over both transports; returns both results and
    what each backend saw."""
    out = {}
    for kind in ("nvme-fs", "virtio-fs"):
        backend = answering(answer)
        out[kind] = transport(kind, backend)(request, write_payload, read_len), backend.seen
    return out["nvme-fs"], out["virtio-fs"]


# ---------------------------------------------------------------- op x case
def case_request(op, case):
    """The request, write payload and read room of one (op, case)."""
    ino = CASES.index(case) + 1
    if op == FileOp.READ:
        length = {"full-page": PAGE, "zero-byte": 0}.get(case, 2 * PAGE)
        offset = 1 << 20 if case == "past-EOF" else 0
        return FileRequest(op, ino=ino, offset=offset, length=length), b"", length
    if op == FileOp.WRITE:
        n = {"ok": 3000, "zero-byte": 0, "full-page": PAGE}.get(case, 500)
        offset = 1 << 20 if case == "past-EOF" else 0
        data = bytes(range(256)) * (n // 256) + bytes(n % 256)
        return FileRequest(op, ino=ino, offset=offset, length=n), data, 0
    if op == FileOp.READDIR:
        return FileRequest(op, ino=ino, length=PAGE), b"", PAGE
    return FileRequest(op, ino=ino, name=b"entry", mode=0o644), b"", 0


def stub_answer(request, payload):
    """What a stack would return for ``request`` in its case (by ``ino``)."""
    op, case = request.op, CASES[request.ino - 1]
    if case == "error":
        return FileResponse(status=Errno.ENOENT), b""
    if op == FileOp.READ:
        # A READ reply is its bytes alone: no header fields.
        if case in ("zero-byte", "aux-only"):
            return FileResponse(), b""
        n = {"past-EOF": 100, "full-page": PAGE}.get(case, 5000)
        data = (b"0123456789abcdef" * (n // 16 + 1))[:n]
        return FileResponse(size=n), data
    if case == "aux-only":
        return FileResponse(aux=0xBEEF), b""
    if op == FileOp.WRITE:
        return FileResponse(size=len(payload)), b""
    if op == FileOp.READDIR:
        count = {"zero-byte": 0, "full-page": 400}.get(case, 3)
        names = [(b"f%04d" % i, 100 + i) for i in range(count)]
        return IoDispatch._paginate_dirents(names, 0, PAGE)
    if op in ATTR_OPS:
        return FileResponse(attr=FileAttr(ino=40 + request.ino, size=1 << 33)), b""
    if op == FileOp.DELEG_ACQUIRE:
        return FileResponse(aux=1), b""
    return FileResponse(), b""


def test_write_reports_bytes_written_on_both_transports():
    request, data, read_len = case_request(FileOp.WRITE, "full-page")
    (nvme, _), (virtio, _) = both(stub_answer, request, data, read_len)
    assert nvme == (FileResponse(size=PAGE), b"")
    assert virtio == nvme


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("op", list(FileOp), ids=lambda op: op.name)
def test_transports_deliver_the_same_outcome(op, case):
    request, data, read_len = case_request(op, case)
    (nvme, nvme_seen), (virtio, virtio_seen) = both(stub_answer, request, data, read_len)
    assert nvme == virtio
    assert nvme_seen == virtio_seen == [(op, request.ino, request.offset, data)]
    answer, payload = stub_answer(request, data)
    assert nvme == answer.settle(payload, read_len)


def test_cases_cover_the_shapes_they_name():
    """The op x case grid really exercises each completion shape."""

    def run(op, case):
        request, data, read_len = case_request(op, case)
        return both(stub_answer, request, data, read_len)[0][0]

    assert run(FileOp.READ, "error") == (FileResponse(status=Errno.ENOENT), b"")
    assert run(FileOp.READ, "zero-byte") == (FileResponse(), b"")
    resp, payload = run(FileOp.READ, "past-EOF")
    assert resp.size == len(payload) == 100
    resp, payload = run(FileOp.READ, "full-page")
    assert resp.size == len(payload) == PAGE
    assert run(FileOp.DELEG_RELEASE, "aux-only")[0].aux == 0xBEEF
    resp, payload = run(FileOp.READDIR, "full-page")
    assert resp.aux and 0 < resp.size == len(payload) <= PAGE
    assert run(FileOp.STAT, "ok")[0].attr.size == 1 << 33


def test_a_payload_past_the_read_room_is_clipped_on_both_transports():
    request = FileRequest(FileOp.READ, ino=1, length=PAGE)
    (nvme, _), (virtio, _) = both(
        lambda r, p: (FileResponse(size=3 * PAGE), b"z" * 3 * PAGE), request, b"", PAGE
    )
    assert nvme == virtio == (FileResponse(size=PAGE), b"z" * PAGE)


def test_an_error_never_carries_a_payload_or_fields():
    request = FileRequest(FileOp.READDIR, ino=1, length=PAGE)
    answer = FileResponse(status=Errno.EIO, aux=3, size=9, attr=FileAttr(ino=2))
    (nvme, _), (virtio, _) = both(lambda r, p: (answer, b"stale"), request, b"", PAGE)
    assert nvme == virtio == (FileResponse(status=Errno.EIO), b"")


# ---------------------------------------------------------------- properties
#: statuses a backend returns; EAGAIN is the transport's own transient nack
STATUSES = [e for e in Errno if e != Errno.EAGAIN]


@st.composite
def outcomes(draw):
    """An arbitrary backend outcome that is valid for its op: a READ reply
    is raw data, so a READ outcome carries no header fields."""
    op = draw(st.sampled_from(list(FileOp)))
    status = draw(st.sampled_from(STATUSES))
    read_len = draw(st.sampled_from([0, 1, PAGE - 1, PAGE, 3 * PAGE]))
    payload = draw(st.binary(max_size=3 * PAGE + 7))
    if op == FileOp.READ:
        response = FileResponse(status, size=len(payload))
    else:
        response = FileResponse(
            status,
            aux=draw(st.integers(0, 2**32 - 1)),
            size=draw(st.integers(0, 2**40)),
            attr=draw(st.none() | st.builds(FileAttr, ino=st.integers(0, 2**64 - 1),
                                             size=st.integers(0, 2**64 - 1))),
            data=draw(st.binary(max_size=64)),
        )
    return op, response, payload, read_len


@settings(max_examples=300, deadline=None)
@given(outcomes())
def test_collect_inverts_settle(outcome):
    _op, response, payload, read_len = outcome
    settled, delivered = response.settle(payload, read_len)
    assert len(delivered) <= read_len
    assert FileResponse.unpack(settled.pack()) == settled
    buffer = delivered + b"\xee" * 64  # bytes past the delivered ones are stale
    assert settled.collect(read_len, lambda n: buffer[:n]) == (settled, delivered)


@settings(max_examples=40, deadline=None)
@given(outcomes())
def test_both_transports_deliver_what_settle_sends(outcome):
    op, response, payload, read_len = outcome
    request = FileRequest(op, ino=3, length=read_len)
    (nvme, _), (virtio, _) = both(lambda r, p: (response, payload), request, b"", read_len)
    assert nvme == virtio == response.settle(payload, read_len)
