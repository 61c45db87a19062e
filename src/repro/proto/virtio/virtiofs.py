"""virtio-fs transport + DPFS-HAL: the baseline DPC is compared against.

Host side (:class:`VirtioFsHost`) mirrors the DPFS stack of paper Figure 2:
VFS requests are converted into FUSE messages, staged into virtqueue buffer
chains (one 4 KiB page per data descriptor), published via the avail ring,
and kicked.  Unlike nvme-fs, FUSE *copies* payload into queue buffers, which
is host CPU the paper's Figure 7/9 CPU numbers charge to DPFS-style stacks.

DPU side (:class:`DpfsHal`) is a **single thread per queue** (and the
baseline has a **single queue**: "current kernel implementations of DPFS do
not support multiple queues"), which serialises request processing — the
throughput ceiling of Figure 6.  Each request is fetched with the literal
Figure 2(b) DMA walk:

  ① read the avail ``idx``            ② read the avail ring entry
  ③..⑥ read each descriptor          ⑦ read the command (FUSE header+body)
  ⑧ read/write the data payload      ⑨ write the response header
  ⑩ write the used ring element      ⑪ write the used ``idx``

— 11 DMA transactions for an 8 KiB write (two data descriptors), versus
nvme-fs's 4.  Chains longer than 4 descriptors use an indirect table
(one extra DMA instead of N), which is how real virtio-fs keeps large I/O
viable at all.
"""

from __future__ import annotations

import struct
from typing import Callable, Generator

from ...obsv.tracer import NULL_TRACER
from ...params import SystemParams
from ...sim.core import Environment, Event
from ...sim.cpu import CpuPool
from ...sim.memory import MemoryArena
from ...sim.pcie import PcieLink
from ..filemsg import Errno, FileOp, FileRequest, FileResponse
from .fuse import (
    FUSE_MAX_TRANSFER,
    FuseInHeader,
    FuseOp,
    FuseOutHeader,
    FuseReadIn,
    FuseWriteIn,
)
from .vring import (
    Descriptor,
    VRING_DESC_F_INDIRECT,
    VRING_DESC_F_NEXT,
    VRING_DESC_F_WRITE,
    VRing,
)

__all__ = ["VirtioFsHost", "DpfsHal", "FILEOP_TO_FUSE"]

PAGE = 4096

FILEOP_TO_FUSE = {
    FileOp.LOOKUP: FuseOp.LOOKUP,
    FileOp.CREATE: FuseOp.CREATE,
    FileOp.OPEN: FuseOp.OPEN,
    FileOp.CLOSE: FuseOp.RELEASE,
    FileOp.READ: FuseOp.READ,
    FileOp.WRITE: FuseOp.WRITE,
    FileOp.STAT: FuseOp.GETATTR,
    FileOp.SETATTR: FuseOp.SETATTR,
    FileOp.MKDIR: FuseOp.MKDIR,
    FileOp.RMDIR: FuseOp.RMDIR,
    FileOp.READDIR: FuseOp.READDIR,
    FileOp.UNLINK: FuseOp.UNLINK,
    FileOp.RENAME: FuseOp.RENAME,
    FileOp.TRUNCATE: FuseOp.SETATTR,
    FileOp.FSYNC: FuseOp.FSYNC,
}


class VirtioFsHost:
    """Host-side virtio-fs + FUSE request path (DPFS baseline)."""

    #: flight-recorder hook; builders replace this with a live tracer
    tracer = NULL_TRACER

    def __init__(
        self,
        env: Environment,
        arena: MemoryArena,
        link: PcieLink,
        host_cpu: CpuPool,
        params: SystemParams,
        num_queues: int | None = None,
    ):
        self.env = env
        self.arena = arena
        self.link = link
        self.host_cpu = host_cpu
        self.params = params
        n = num_queues if num_queues is not None else params.virtio_num_queues
        self.rings = [VRing(env, arena, params.virtio_queue_depth) for _ in range(n)]
        self._unique = 0
        #: unique -> (event, out_hdr_addr, out_body_room)
        self._pending: dict[int, Event] = {}
        for ring in self.rings:
            env.process(self._used_handler(ring), name="virtio-used")

    def ring_for(self, submitter_id: int) -> VRing:
        return self.rings[submitter_id % len(self.rings)]

    @property
    def max_transfer(self) -> int:
        return FUSE_MAX_TRANSFER

    # -- request submission -----------------------------------------------------
    def submit(
        self,
        request: FileRequest,
        write_payload: bytes = b"",
        read_len: int = 0,
        submitter_id: int = 0,
    ) -> Generator[Event, None, tuple[FileResponse, bytes]]:
        """Send one file operation through FUSE-over-virtio; returns
        (response, read payload).  Transfers above FUSE_MAX_TRANSFER must be
        split by the caller (as the kernel FUSE client does)."""
        with self.tracer.span("virtio.submit", track="transport", op=request.op.name):
            return (
                yield from self._submit_impl(request, write_payload, read_len, submitter_id)
            )

    def _submit_impl(
        self,
        request: FileRequest,
        write_payload: bytes,
        read_len: int,
        submitter_id: int,
    ) -> Generator[Event, None, tuple[FileResponse, bytes]]:
        if len(write_payload) > FUSE_MAX_TRANSFER or read_len > FUSE_MAX_TRANSFER:
            raise ValueError("transfer exceeds FUSE max_transfer; split the request")
        ring = self.ring_for(submitter_id)
        slot = ring.slots.request()
        yield slot
        self._unique += 1
        unique = self._unique
        # Span context rides with the FUSE unique; the HAL adopts it after
        # it decodes the command header on the DPU side.
        self.tracer.handoff(("virtio", unique))
        # Build the FUSE message: header + op body (+ payload staged into
        # page-sized queue buffers — a real copy, charged to the host CPU).
        fuse_op = FILEOP_TO_FUSE[request.op]
        if request.op == FileOp.READ:
            body = FuseReadIn(request.ino, request.offset, read_len).pack()
        elif request.op == FileOp.WRITE:
            body = FuseWriteIn(request.ino, request.offset, len(write_payload)).pack()
        else:
            body = request.pack()
        hdr = FuseInHeader(
            FuseInHeader.SIZE + len(body) + len(write_payload), fuse_op, unique, request.ino
        ).pack()
        cmd = hdr + body
        npages_w = (len(write_payload) + PAGE - 1) // PAGE
        npages_r = (read_len + PAGE - 1) // PAGE
        out_room = 256
        cmd_addr = self.arena.alloc(max(1, len(cmd)), align=8)
        data_addr = self.arena.alloc(max(1, npages_w * PAGE), align=PAGE)
        out_addr = self.arena.alloc(out_room + npages_r * PAGE, align=8)
        # FUSE queue handling + payload copy: host CPU time.
        yield from self.host_cpu.execute(
            self.params.fuse_request_cost
            + self.params.host_copy_per_4k * max(npages_w, npages_r),
            tag="fuse",
        )
        self.arena.write(cmd_addr, cmd)
        if write_payload:
            self.arena.write(data_addr, write_payload)
        # Build the descriptor chain: cmd | write pages... | out hdr | read pages...
        chain: list[Descriptor] = [Descriptor(cmd_addr, len(cmd))]
        for i in range(npages_w):
            size = min(PAGE, len(write_payload) - i * PAGE)
            chain.append(Descriptor(data_addr + i * PAGE, size))
        chain.append(Descriptor(out_addr, out_room, VRING_DESC_F_WRITE))
        for i in range(npages_r):
            size = min(PAGE, read_len - i * PAGE)
            chain.append(
                Descriptor(out_addr + out_room + i * PAGE, size, VRING_DESC_F_WRITE)
            )
        indirect_addr = 0
        if len(chain) > 4:
            # Indirect: one table buffer holds the whole chain.
            table = bytearray()
            for j, d in enumerate(chain):
                flags = d.flags | (VRING_DESC_F_NEXT if j < len(chain) - 1 else 0)
                table += Descriptor(d.addr, d.len, flags, j + 1 if j < len(chain) - 1 else 0).pack()
            indirect_addr = self.arena.alloc(len(table), align=16)
            self.arena.write(indirect_addr, bytes(table))
            ids = ring.alloc_descs(1)
            ring.write_desc(
                ids[0], Descriptor(indirect_addr, len(table), VRING_DESC_F_INDIRECT)
            )
            head = ids[0]
        else:
            ids = ring.alloc_descs(len(chain))
            for j, d in enumerate(chain):
                flags = d.flags | (VRING_DESC_F_NEXT if j < len(chain) - 1 else 0)
                nxt = ids[j + 1] if j < len(chain) - 1 else 0
                ring.write_desc(ids[j], Descriptor(d.addr, d.len, flags, nxt))
            head = ids[0]
        done = self.env.event()
        self._pending[unique] = done
        ring.publish(head)
        yield from self.link.doorbell(tag="virtio-kick")
        yield ring.kick.put(ring.host_avail_idx)
        try:
            yield done
            # Parse the response written into the out descriptor.
            # ``len`` counts every reply byte: the FileResponse body (if any)
            # plus the payload written into the read pages.
            out_raw = self.arena.read(out_addr, out_room)
            out_hdr = FuseOutHeader.unpack(out_raw)
            reply_len = out_hdr.length - FuseOutHeader.SIZE
            got = 0
            if out_hdr.error:
                response = FileResponse(status=Errno(-out_hdr.error))
            elif request.op == FileOp.READ:
                response = FileResponse(size=reply_len)
                got = reply_len
            elif reply_len > 0:
                response = FileResponse.unpack(out_raw[FuseOutHeader.SIZE :])
                got = reply_len - response.wire_size()
            else:
                response = FileResponse()
            payload = b""
            got = min(read_len, got)
            if got > 0 and response.ok:
                payload = self.arena.read(out_addr + out_room, got)
            yield from self.host_cpu.execute(
                self.params.fuse_request_cost * 0.4 + self.params.completion_wakeup_cost,
                tag="fuse",
            )
            return response, payload
        finally:
            ring.free_descs(ids)
            self.arena.free(cmd_addr)
            self.arena.free(data_addr)
            self.arena.free(out_addr)
            if indirect_addr:
                self.arena.free(indirect_addr)
            ring.slots.release(slot)

    # -- completion path ------------------------------------------------------------
    def _used_handler(self, ring: VRing) -> Generator[Event, None, None]:
        while True:
            unique = yield ring.used_irq.get()
            ring.host_used_seen += 1
            waiter = self._pending.pop(unique, None)
            if waiter is None:  # pragma: no cover - protocol bug guard
                raise RuntimeError(f"used entry for unknown unique {unique}")
            waiter.succeed()


class DpfsHal:
    """DPU-side DPFS-HAL: one serial worker thread per virtqueue.

    The backend receives the decoded :class:`FileRequest` (plus payload for
    writes) and returns ``(FileResponse, read_payload)`` — the same contract
    as the nvme-fs target, so both transports drive identical DPU stacks.
    """

    #: flight-recorder hook; builders replace this with a live tracer
    tracer = NULL_TRACER

    def __init__(
        self,
        env: Environment,
        link: PcieLink,
        dpu_cpu: CpuPool,
        params: SystemParams,
        rings: list[VRing],
        backend: Callable[..., Generator],
    ):
        self.env = env
        self.link = link
        self.dpu_cpu = dpu_cpu
        self.params = params
        self.rings = rings
        self.backend = backend
        self.requests_processed = 0
        #: async DMA contexts the single HAL thread juggles; the thread is
        #: still the only consumer of the ring, but completions overlap —
        #: without this, real DPFS could not reach even its measured IOPS
        from ...sim.resources import Resource as _Resource

        self._contexts = _Resource(env, params.virtio_hal_pipeline)
        for ring in rings:
            env.process(self._hal_thread(ring), name="dpfs-hal")

    def _hal_thread(self, ring: VRing) -> Generator[Event, None, None]:
        while True:
            yield ring.kick.get()
            # Coalesce queued kicks (virtio notification suppression).
            while True:
                ok, _ = ring.kick.try_get()
                if not ok:
                    break
            # ① read the avail idx, then pop every published chain.  The
            # single HAL thread serialises the ring walk; chain processing
            # proceeds on its bounded pool of async DMA contexts.
            raw = yield from self.link.dma_read(ring.avail_idx_addr, 2, tag="avail-idx")
            avail_idx = int.from_bytes(raw, "little")
            while ring.last_avail_idx != avail_idx:
                ctx = self._contexts.request()
                yield ctx
                # ② read the avail ring entry to find the chain head.
                raw = yield from self.link.dma_read(
                    ring.avail_ring_addr(ring.last_avail_idx), 2, tag="avail-entry"
                )
                head = int.from_bytes(raw, "little")
                ring.last_avail_idx = (ring.last_avail_idx + 1) & 0xFFFF
                self.env.process(
                    self._process_chain(ring, head, ctx), name="dpfs-hal-chain"
                )

    def _process_chain(self, ring: VRing, head: int, ctx) -> Generator[Event, None, None]:
        try:
            yield from self._process_body(ring, head)
        finally:
            self._contexts.release(ctx)

    def _process_body(self, ring: VRing, head: int) -> Generator[Event, None, None]:
        # The HAL learns which host request this chain belongs to only after
        # the command header DMA decodes the FUSE unique; the span opens
        # unparented and is linked late via reparent().
        with self.tracer.span("virtio.hal", track="transport", parent=None) as sp:
            yield from self._body_impl(ring, head, sp)

    def _body_impl(self, ring: VRing, head: int, sp) -> Generator[Event, None, None]:
        link = self.link
        # ③.. walk the descriptor chain.
        descs: list[Descriptor] = []
        raw = yield from link.dma_read(ring.desc_addr(head), 16, tag="desc-read")
        first = Descriptor.unpack(raw)
        if first.indirect:
            # One DMA fetches the whole indirect table.
            table = yield from link.dma_read(first.addr, first.len, tag="indirect-table")
            for off in range(0, len(table), 16):
                descs.append(Descriptor.unpack(table[off : off + 16]))
        else:
            descs.append(first)
            cur = first
            while cur.has_next:
                raw = yield from link.dma_read(ring.desc_addr(cur.next), 16, tag="desc-read")
                cur = Descriptor.unpack(raw)
                descs.append(cur)
        # ⑦ read the command buffer (FUSE header + body).
        cmd_desc = descs[0]
        cmd = yield from link.dma_read(cmd_desc.addr, cmd_desc.len, tag="cmd-read")
        hdr = FuseInHeader.unpack(cmd)
        sp.reparent(self.tracer.adopt(("virtio", hdr.unique))).set(unique=hdr.unique)
        body = cmd[FuseInHeader.SIZE :]
        write_descs = [d for d in descs[1:] if not d.device_writable]
        writable = [d for d in descs[1:] if d.device_writable]
        out_desc = writable[0]
        read_descs = writable[1:]
        # ⑧ read the write payload (one scatter-gather DMA over the pages).
        payload = b""
        if write_descs:
            total = sum(d.len for d in write_descs)
            payload = yield from link.dma_read(
                write_descs[0].addr, total, tag="write-data", paged=True
            )
        # Decode FUSE back into the file-semantic request.
        request, read_len = self._decode(hdr, body, payload)
        yield from self.dpu_cpu.execute(self.params.dpu_fuse_hal_cost, tag="dpfs-hal")
        response, read_payload = yield from self.backend(None, request, payload)
        # ⑧' write the read payload into the device-writable pages.
        read_payload = read_payload[:read_len] if read_descs else b""
        if read_payload:
            yield from link.dma_write(
                read_descs[0].addr, read_payload, tag="read-data", paged=True
            )
        used_len = FuseOutHeader.SIZE + len(read_payload)
        # ⑨ write the response (fuse_out header + body).  A FUSE_READ reply is
        # raw data, so a failed read rides in ``error``; every other reply
        # that fills a read buffer (READDIR) always carries the body, so the
        # host can tell the body from the payload bytes ``len`` also counts.
        resp_body = b""
        if hdr.opcode != FuseOp.READ and (
            response.attr is not None
            or response.data
            or response.aux
            or not response.ok
            or read_len
        ):
            resp_body = response.pack()
        out = FuseOutHeader(
            FuseOutHeader.SIZE + len(resp_body) + len(read_payload),
            -int(response.status) if not resp_body else 0,
            hdr.unique,
        ).pack() + resp_body
        yield from link.dma_write(out_desc.addr, out, tag="resp-write")
        # ⑩ write the used ring element; ⑪ bump the used idx.
        used_at = ring.dpu_used_idx
        ring.dpu_used_idx = (used_at + 1) & 0xFFFF
        elem = struct.pack("<II", head, used_len)
        yield from link.dma_write(ring.used_ring_addr(used_at), elem, tag="used-entry")
        yield from link.dma_write(
            ring.used_idx_addr,
            ((used_at + 1) & 0xFFFF).to_bytes(2, "little"),
            tag="used-idx",
        )
        self.requests_processed += 1
        # ⑫ raise the vring interrupt (one per request: virtio-fs queues do
        # not coalesce completions — part of the control-TLP gap vs nvme-fs).
        yield from link.interrupt(tag="used-irq")
        yield ring.used_irq.put(hdr.unique)

    @staticmethod
    def _decode(
        hdr: FuseInHeader, body: bytes, payload: bytes
    ) -> tuple[FileRequest, int]:
        """Rebuild the file-semantic request from the FUSE message."""
        if hdr.opcode == FuseOp.READ:
            rin = FuseReadIn.unpack(body)
            return (
                FileRequest(FileOp.READ, ino=rin.fh, offset=rin.offset, length=rin.size),
                rin.size,
            )
        if hdr.opcode == FuseOp.WRITE:
            win = FuseWriteIn.unpack(body)
            return (
                FileRequest(FileOp.WRITE, ino=win.fh, offset=win.offset, length=win.size),
                0,
            )
        request = FileRequest.unpack(body)
        # READDIR fills the read buffer, as on nvme-fs: ``length`` sizes it.
        return request, request.length if request.op == FileOp.READDIR else 0
