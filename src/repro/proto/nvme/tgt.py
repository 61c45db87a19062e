"""NVME-TGT: the DPU-side nvme-fs driver.

One worker process per queue pair consumes doorbell notifications, walks the
submission ring over PCIe, and executes the paper's Figure 4 transmission
path for every command — exactly four DMA transactions for a plain 8 KB
write:

  ① DMA-read the SQE from the SQ,
  ② DMA-read the write header (the FileRequest the PRP Write points at),
  ③ DMA-read the write payload,
  ④ DMA-write the CQE.

(If the response carries a header — attributes, an ``aux`` word — one extra
DMA writes it into the PRP Read region; plain status and the completed byte
count ride inside the CQE result.)  Reads substitute ③ with a DMA-write of
the read payload; so does READDIR, whose dirents fill the read buffer.

Under load the *control plane* of that path coalesces, as on real NVMe
controllers:

* **Burst SQE fetch** — a doorbell announcing N pending SQEs triggers one
  contiguous DMA read of all N (up to the ring-wrap boundary) instead of
  one 64-byte read per slot.
* **CQE write + interrupt coalescing** — completions accumulated within
  ``cqe_coalesce_us`` (or until ``cqe_coalesce_threshold``) are flushed as
  one contiguous CQE DMA burst and one interrupt carrying the slot range.
  The holdoff fires immediately when the queue is otherwise idle, so an
  isolated command still costs exactly one CQE write and one interrupt.

The decoded :class:`FileRequest` is handed to a *backend*: a callable
``backend(sqe, request, payload) -> generator -> (FileResponse, bytes)``.
The IO_Dispatch module in :mod:`repro.dpu` is the production backend; the
raw-transport benchmark plugs in a virtual client (paper §4.1).
"""

from __future__ import annotations

from typing import Callable, Generator

from ...obsv.tracer import NULL_TRACER
from ...params import SystemParams
from ...sim.core import Environment, Event
from ...sim.cpu import CpuPool
from ...sim.pcie import PcieLink
from ..filemsg import FileRequest, FileResponse
from .queues import NvmeQueuePair
from .sqe import Cqe, CQE_SIZE, NVMEFS_OPCODE, Sqe, SQE_SIZE

__all__ = ["NvmeFsTarget"]

Backend = Callable[..., Generator]


class _CqState:
    """Per-queue completion coalescing state."""

    __slots__ = ("buf", "armed")

    def __init__(self):
        self.buf: list[Cqe] = []
        self.armed = False


class NvmeFsTarget:
    """DPU driver: per-queue workers + pluggable request backend."""

    #: flight-recorder hook; builders replace this with a live tracer
    tracer = NULL_TRACER

    def __init__(
        self,
        env: Environment,
        link: PcieLink,
        dpu_cpu: CpuPool,
        params: SystemParams,
        queues: list[NvmeQueuePair],
        backend: Backend,
    ):
        self.env = env
        self.link = link
        self.dpu_cpu = dpu_cpu
        self.params = params
        self.queues = queues
        self.backend = backend
        self.commands_processed = 0
        #: optional :class:`~repro.fault.FaultPlane`: transient device errors
        #: surface as CQE status codes before the backend executes
        self.fault_plane = None
        self.transient_errors = 0
        self._cq = {qp.qid: _CqState() for qp in queues}
        for qp in queues:
            env.process(self._worker(qp), name=f"nvme-tgt-q{qp.qid}")

    def _worker(self, qp: NvmeQueuePair) -> Generator[Event, None, None]:
        while True:
            tail = yield qp.sq_doorbell.get()
            # Drain doorbells that stacked up while we were busy: the tail
            # is a register, only its latest value matters.
            while True:
                ok, extra = qp.sq_doorbell.try_get()
                if not ok:
                    break
                if extra > tail:
                    tail = extra
            if tail > qp.dpu_seen_tail:
                qp.dpu_seen_tail = tail
            while qp.dpu_sq_head < tail:
                # Burst fetch: all pending SQEs up to the ring-wrap boundary
                # in one contiguous DMA read.
                start = qp.dpu_sq_head
                n = min(tail - start, qp.depth - (start % qp.depth))
                raw = yield from self.link.dma_read(
                    qp.sqe_addr(start), n * SQE_SIZE, tag="sqe-fetch"
                )
                if n > 1:
                    self.link.stats.record_burst("sqe-fetch", n)
                for k in range(n):
                    sqe = Sqe.unpack(raw[k * SQE_SIZE : (k + 1) * SQE_SIZE])
                    if sqe.opcode != NVMEFS_OPCODE:
                        raise ValueError(
                            f"unexpected opcode {sqe.opcode:#x} in nvme-fs queue"
                        )
                    index = qp.dpu_sq_head
                    qp.dpu_sq_head += 1
                    # Process each command concurrently; the SQ walk itself
                    # is serial per queue, as in hardware.
                    self.env.process(
                        self._process(qp, sqe), name=f"nvme-tgt-q{qp.qid}-c{index}"
                    )

    def _process(self, qp: NvmeQueuePair, sqe: Sqe) -> Generator[Event, None, None]:
        # Link to the initiator-side span that produced this (qid, cid).
        parent = self.tracer.adopt(("nvme", qp.qid, sqe.cid))
        with self.tracer.span("nvme.tgt", track="transport", parent=parent,
                              qid=qp.qid, cid=sqe.cid):
            yield from self._process_impl(qp, sqe)

    def _process_impl(self, qp: NvmeQueuePair, sqe: Sqe) -> Generator[Event, None, None]:
        p = self.params
        # DPU CPU: parse + dispatch decision (IO_Dispatch reads DW0 bit 10).
        yield from self.dpu_cpu.execute(p.dpu_dispatch_cost, tag="nvme-tgt")
        if self.fault_plane is not None:
            status = self.fault_plane.nvme_error(qp.qid)
            if status is not None:
                # Transient device error: the command never reaches the
                # backend; the CQE carries the failure status and the
                # initiator is expected to retry.
                self.transient_errors += 1
                cqe = Cqe(
                    cid=sqe.cid,
                    status=int(status),
                    result=0,
                    sq_head=qp.dpu_sq_head & 0xFFFF,
                    sq_id=qp.qid,
                )
                self.commands_processed += 1
                yield from self._complete(qp, cqe)
                return
        # ② read the write header (the FileRequest).
        hdr = yield from self.link.dma_read(sqe.prp_write1, sqe.wh_len, tag="cmd-header")
        request = FileRequest.unpack(hdr)
        # ③ read the write payload (writes) ...
        payload = b""
        if sqe.write_len:
            payload = yield from self.link.dma_read(
                sqe.prp_write1 + sqe.wh_len, sqe.write_len, tag="write-data"
            )
        # Execute the operation on the DPU stacks.
        response, read_payload = yield from self.backend(sqe, request, payload)
        # ... or ③' write the read payload back.
        if read_payload:
            if len(read_payload) > sqe.read_len:
                read_payload = read_payload[: sqe.read_len]
            yield from self.link.dma_write(
                sqe.prp_read1 + sqe.rh_len, read_payload, tag="read-data"
            )
        # Optional response header: attributes, or an ``aux`` word (a READDIR
        # continuation cookie, a delegation grant) the CQE result cannot hold.
        if response.attr is not None or response.data or response.aux:
            blob = response.pack()
            if len(blob) > sqe.rh_len:
                raise ValueError("response header exceeds RH_len region")
            yield from self.link.dma_write(sqe.prp_read1, blob, tag="resp-header")
            result = 0x80000000
        else:
            result = (response.size if response.size else len(read_payload)) & 0x7FFFFFFF
        # ④ hand the CQE to the per-queue coalescer.
        cqe = Cqe(
            cid=sqe.cid,
            status=int(response.status),
            result=result,
            sq_head=qp.dpu_sq_head & 0xFFFF,
            sq_id=qp.qid,
        )
        self.commands_processed += 1
        yield from self._complete(qp, cqe)

    # -- completion coalescing ------------------------------------------------
    def _complete(self, qp: NvmeQueuePair, cqe: Cqe) -> Generator[Event, None, None]:
        """Buffer a completion; flush on idle, threshold, or holdoff expiry.

        "Idle" means no other fetched-or-announced command remains on this
        queue pair: the latency-sensitive single op never waits for the
        aggregation window, which preserves the Figure 4 shape (one CQE
        write, one interrupt) and the Figure 6 single-thread latencies.
        """
        p = self.params
        st = self._cq[qp.qid]
        st.buf.append(cqe)
        outstanding = qp.dpu_seen_tail - qp.dpu_cq_tail - len(st.buf)
        announced = len(qp.sq_doorbell.items) > 0
        if (
            p.cqe_coalesce_us <= 0
            or len(st.buf) >= max(1, p.cqe_coalesce_threshold)
            or (outstanding <= 0 and not announced)
        ):
            yield from self._flush_cq(qp, st)
        elif not st.armed:
            st.armed = True
            self.env.process(self._cq_holdoff(qp, st), name=f"nvme-tgt-cq{qp.qid}")

    def _cq_holdoff(self, qp: NvmeQueuePair, st: _CqState) -> Generator[Event, None, None]:
        yield self.env.timeout(self.params.cqe_coalesce_us)
        st.armed = False
        if st.buf:
            yield from self._flush_cq(qp, st)

    def _flush_cq(self, qp: NvmeQueuePair, st: _CqState) -> Generator[Event, None, None]:
        """Write the buffered CQEs as one contiguous burst + one interrupt.

        The CQ slot range is reserved synchronously so concurrent flushes on
        the same queue never collide; a burst that crosses the ring-wrap
        boundary splits into two DMA writes.
        """
        buf, st.buf = st.buf, []
        first = qp.dpu_cq_tail
        qp.dpu_cq_tail += len(buf)
        blob = b"".join(c.pack() for c in buf)
        n1 = min(len(buf), qp.depth - (first % qp.depth))
        yield from self.link.dma_write(
            qp.cqe_addr(first), blob[: n1 * CQE_SIZE], tag="cqe-write"
        )
        if n1 < len(buf):
            yield from self.link.dma_write(
                qp.cqe_addr(first + n1), blob[n1 * CQE_SIZE :], tag="cqe-write"
            )
        if len(buf) > 1:
            self.link.stats.record_burst("cqe-write", len(buf))
        yield from self.link.interrupt(tag="cq-irq")
        yield qp.cq_irq.put((first, len(buf)))
