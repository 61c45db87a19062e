"""NVME-INI: the host-side nvme-fs driver.

Converts :class:`FileRequest` objects into vendor-opcode SQEs, manages the
PRP data buffers, rings doorbells, and parses completions.  This is the
piece the fs-adapter calls into (paper Figure 3, left half).

Buffer layout per command (all in the host arena, PRP-addressed):

* write buffer  = [ FileRequest header (WH_len) | write payload (Write_len) ]
* read buffer   = [ FileResponse header (RH_len) | read payload (Read_len) ]

Data is zero-copy from the protocol's perspective: the payload's physical
address rides in the SQE (PRP Write/Read), and only the DPU's DMA engine
moves it — matching the paper's "the physical address of the user data
buffer is directly attached to the submission command".

Doorbell coalescing (the control-plane half of the coalesced fast path):
a submission onto an otherwise-idle queue pair rings its doorbell at once,
preserving the isolated-op latency and the Figure 4 transaction shape.  On
a busy queue the MMIO is *write-combined*: the tail advance is deferred up
to ``doorbell_combine_us`` so one posted write announces every SQE produced
in the window.  :meth:`NvmeFsInitiator.submit_many` batches explicitly —
N commands on one queue pair, one doorbell carrying the final tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Sequence

from ...obsv.tracer import NULL_TRACER
from ...params import SystemParams
from ...sim.core import Environment, Event
from ...sim.cpu import CpuPool
from ...sim.memory import MemoryArena
from ...sim.pcie import PcieLink
from ..filemsg import Errno, FileRequest, FileResponse
from .queues import NvmeQueuePair
from .sqe import Cqe, CQE_SIZE, RESULT_HEADER, ReqType, Sqe

__all__ = ["NvmeFsInitiator"]

#: bytes reserved for the response header region of every command
RESP_HEADER_ROOM = 2048


@dataclass
class _Pending:
    """An SQE produced into the ring, awaiting its completion."""

    cid: int
    done: Event
    wbuf: int
    rbuf: int
    rh_len: int
    read_len: int


class NvmeFsInitiator:
    """Host driver: multi-queue SQE submission + completion handling."""

    #: flight-recorder hook; builders replace this with a live tracer
    tracer = NULL_TRACER

    def __init__(
        self,
        env: Environment,
        arena: MemoryArena,
        link: PcieLink,
        host_cpu: CpuPool,
        params: SystemParams,
        num_queues: Optional[int] = None,
    ):
        self.env = env
        self.arena = arena
        self.link = link
        self.host_cpu = host_cpu
        self.params = params
        n = num_queues if num_queues is not None else params.nvme_num_queues
        self.queues = [
            NvmeQueuePair(env, arena, qid, params.nvme_queue_depth) for qid in range(n)
        ]
        #: commands re-issued after a transient (EAGAIN) completion
        self.transient_retries = 0
        for qp in self.queues:
            env.process(self._completion_handler(qp), name=f"nvme-ini-cq{qp.qid}")

    def queue_for(self, submitter_id: int) -> NvmeQueuePair:
        """Static queue assignment: one queue per submitter, wrapped."""
        return self.queues[submitter_id % len(self.queues)]

    # -- SQE production -------------------------------------------------------
    def _build(
        self,
        qp: NvmeQueuePair,
        request: FileRequest,
        write_payload: bytes,
        read_len: int,
        req_type: int,
    ) -> Generator[Event, None, _Pending]:
        """Stage buffers and produce one SQE at the SQ tail (no doorbell)."""
        header = request.pack()
        wh_len = len(header)
        write_len = len(write_payload)
        rh_len = RESP_HEADER_ROOM
        wbuf = self.arena.alloc(max(1, wh_len + write_len), align=8)
        rbuf = self.arena.alloc(rh_len + max(read_len, 0) or 1, align=8)
        try:
            # Host CPU: build the command; stage header + payload.  The
            # payload "copy" is the user-buffer pin/translate cost, charged
            # per 4 KiB page.
            pages = (write_len + 4095) // 4096
            yield from self.host_cpu.execute(
                self.params.sqe_build_cost + self.params.host_copy_per_4k * 0.1 * pages,
                tag="nvme-ini",
            )
            self.arena.write(wbuf, header)
            if write_payload:
                self.arena.write(wbuf + wh_len, write_payload)
            cid = qp.alloc_cid()
            sqe = Sqe(
                cid=cid,
                req_type=req_type,
                prp_write1=wbuf,
                prp_write2=wbuf + 4096 if wh_len + write_len > 4096 else 0,
                prp_read1=rbuf,
                prp_read2=rbuf + 4096 if rh_len + read_len > 4096 else 0,
                write_len=write_len,
                read_len=read_len,
                wh_len=wh_len,
                rh_len=rh_len,
            )
            # Produce the SQE at the SQ tail (host memory write: free).
            self.arena.write(qp.sqe_addr(qp.host_sq_tail), sqe.pack())
            qp.host_sq_tail += 1
            qp.submitted += 1
            done = self.env.event()
            qp.pending[cid] = done
            # Span context rides with the command: the target adopts it when
            # it processes (qid, cid) on the far side of the link.
            self.tracer.handoff(("nvme", qp.qid, cid))
            return _Pending(cid, done, wbuf, rbuf, rh_len, read_len)
        except BaseException:
            self.arena.free(wbuf)
            self.arena.free(rbuf)
            raise

    def _free(self, pend: _Pending) -> None:
        self.arena.free(pend.wbuf)
        self.arena.free(pend.rbuf)

    # -- doorbell path --------------------------------------------------------
    def _ring(self, qp: NvmeQueuePair) -> Generator[Event, None, None]:
        """One posted MMIO write carrying the current SQ tail."""
        yield from self.link.doorbell(tag="sq-doorbell")
        tail = qp.host_sq_tail
        qp.db_rung_tail = tail
        yield qp.sq_doorbell.put(tail)

    def _kick(self, qp: NvmeQueuePair) -> Generator[Event, None, None]:
        """Ring now if the queue is otherwise idle; else write-combine."""
        window = self.params.doorbell_combine_us
        if window <= 0 or len(qp.pending) <= 1:
            yield from self._ring(qp)
            return
        if not qp.db_armed:
            qp.db_armed = True
            self.env.process(self._combine(qp), name=f"nvme-ini-db{qp.qid}")

    def _combine(self, qp: NvmeQueuePair) -> Generator[Event, None, None]:
        """Deferred-doorbell timer: one MMIO for the whole combine window."""
        yield self.env.timeout(self.params.doorbell_combine_us)
        qp.db_armed = False
        if qp.host_sq_tail != qp.db_rung_tail:
            yield from self._ring(qp)

    # -- submission -----------------------------------------------------------
    def submit(
        self,
        request: FileRequest,
        write_payload: bytes = b"",
        read_len: int = 0,
        req_type: int = ReqType.STANDALONE,
        submitter_id: int = 0,
    ) -> Generator[Event, None, tuple[FileResponse, bytes]]:
        """Issue one file operation; returns (response, read payload).

        Transient device errors (:data:`Errno.EAGAIN` completions) are
        retried with a linear backoff up to ``nvme_retry_max`` attempts, as
        a real host NVMe driver requeues commands the controller nacked.
        """
        attempts = max(1, self.params.nvme_retry_max)
        for attempt in range(1, attempts + 1):
            result = yield from self._submit_once(
                request, write_payload, read_len, req_type, submitter_id
            )
            if result[0].status != Errno.EAGAIN or attempt >= attempts:
                return result
            self.transient_retries += 1
            yield self.env.timeout(self.params.nvme_retry_backoff * attempt)

    def _submit_once(
        self,
        request: FileRequest,
        write_payload: bytes,
        read_len: int,
        req_type: int,
        submitter_id: int,
    ) -> Generator[Event, None, tuple[FileResponse, bytes]]:
        qp = self.queue_for(submitter_id)
        with self.tracer.span("nvme.submit", track="transport",
                              op=request.op.name, qid=qp.qid):
            slot = qp.slots.request()
            yield slot
            pend: Optional[_Pending] = None
            try:
                pend = yield from self._build(qp, request, write_payload, read_len, req_type)
                yield from self._kick(qp)
                return (yield from self._collect(qp, pend))
            finally:
                if pend is not None:
                    self._free(pend)
                qp.slots.release(slot)

    def submit_many(
        self,
        batch: Sequence[tuple[FileRequest, bytes, int]],
        req_type: int = ReqType.STANDALONE,
        submitter_id: int = 0,
    ) -> Generator[Event, None, list[tuple[FileResponse, bytes]]]:
        """Issue many operations on one queue pair, coalescing doorbells.

        ``batch`` is a sequence of ``(request, write_payload, read_len)``
        triples.  All SQEs of a chunk are produced back-to-back and
        announced by a *single* doorbell MMIO carrying the final tail; the
        target's burst fetch then pulls them in one SQE DMA.  Results are
        returned in batch order.

        Batches larger than the queue depth are processed in ring-sized
        chunks so the batch can never deadlock against its own slots; if a
        slot request blocks mid-chunk (other submitters hold the queue),
        the SQEs produced so far are announced first so the ring drains.
        """
        with self.tracer.span("nvme.submit_many", track="transport", n=len(batch)):
            return (
                yield from self._submit_many_impl(batch, req_type, submitter_id)
            )

    def _submit_many_impl(
        self,
        batch: Sequence[tuple[FileRequest, bytes, int]],
        req_type: int,
        submitter_id: int,
    ) -> Generator[Event, None, list[tuple[FileResponse, bytes]]]:
        qp = self.queue_for(submitter_id)
        results: list[tuple[FileResponse, bytes]] = []
        pos = 0
        while pos < len(batch):
            chunk = batch[pos : pos + qp.depth]
            pos += len(chunk)
            slots: list = []
            pendings: list[_Pending] = []
            try:
                for request, write_payload, read_len in chunk:
                    slot = qp.slots.request()
                    if not slot.triggered and qp.host_sq_tail != qp.db_rung_tail:
                        # Queue full: announce what we have so it can drain.
                        yield from self._ring(qp)
                    yield slot
                    slots.append(slot)
                    pend = yield from self._build(
                        qp, request, write_payload, read_len, req_type
                    )
                    pendings.append(pend)
                if qp.host_sq_tail != qp.db_rung_tail:
                    yield from self._ring(qp)
                for pend in pendings:
                    results.append((yield from self._collect(qp, pend)))
            finally:
                for pend in pendings:
                    self._free(pend)
                for slot in slots:
                    qp.slots.release(slot)
        # Re-issue any command the device nacked transiently; each re-issue
        # runs through :meth:`submit` and gets the standard retry budget.
        for i in range(len(results)):
            if results[i][0].status == Errno.EAGAIN:
                req, wp, rl = batch[i]
                results[i] = yield from self.submit(req, wp, rl, req_type, submitter_id)
        return results

    # -- completion path ----------------------------------------------------------
    def _collect(
        self, qp: NvmeQueuePair, pend: _Pending
    ) -> Generator[Event, None, tuple[FileResponse, bytes]]:
        """Wait for one command's CQE and parse its outcome."""
        cqe: Cqe = yield pend.done
        if cqe.result & RESULT_HEADER:
            # Response header present: parse the FileResponse region.
            raw = self.arena.read(pend.rbuf, pend.rh_len)
            response = FileResponse.unpack(raw)
        else:
            response = FileResponse(status=Errno(cqe.status), size=cqe.result)
        return response.collect(
            pend.read_len, lambda n: self.arena.read(pend.rbuf + pend.rh_len, n)
        )

    def _completion_handler(self, qp: NvmeQueuePair) -> Generator[Event, None, None]:
        while True:
            first, count = yield qp.cq_irq.get()
            # One wakeup drains every CQE the interrupt announced: the
            # context-switch cost is paid per interrupt, the parse cost per
            # CQE.  Completion order may differ from submission order; the
            # slot range keeps the handler and the device's CQ tail in
            # agreement (host memory reads: free).
            yield from self.host_cpu.execute(
                self.params.completion_wakeup_cost, tag="nvme-ini"
            )
            for slot in range(first, first + count):
                raw = self.arena.read(qp.cqe_addr(slot), CQE_SIZE)
                qp.host_cq_head += 1
                cqe = Cqe.unpack(raw)
                yield from self.host_cpu.execute(
                    self.params.cqe_handle_cost, tag="nvme-ini"
                )
                qp.completed += 1
                waiter = qp.pending.pop(cqe.cid, None)
                if waiter is None:  # pragma: no cover - protocol bug guard
                    raise RuntimeError(f"completion for unknown cid {cqe.cid}")
                waiter.succeed(cqe)

    # -- diagnostics -----------------------------------------------------------------
    def in_flight(self) -> int:
        return sum(len(qp.pending) for qp in self.queues)
