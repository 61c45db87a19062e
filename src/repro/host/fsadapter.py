"""fs-adapter: the host-kernel shim that replaces FUSE in DPC (paper §3.1).

:class:`DpcAdapter` is the lightweight adapter of Figure 3: it probes the
hybrid cache's host-resident data plane first and only crosses PCIe (via
nvme-fs) on misses and metadata operations.  :class:`DpfsAdapter` is the
same surface over the virtio-fs/FUSE transport, used by the DPFS baseline.

Cache key namespace: the hybrid cache is shared by the standalone (KVFS)
and distributed (DFS) stacks, so cache inode keys are tagged
``(ino << 1) | fs_bit`` — the same tagging the DPU control plane uses when
filling pages and writing them back.
"""

from __future__ import annotations

import dataclasses
from typing import Generator, Optional

from ..cache.hostplane import HostCachePlane
from ..params import SystemParams
from ..proto.filemsg import (
    Errno,
    FileAttr,
    FileOp,
    FileRequest,
    FileResponse,
    unpack_dirents,
)
from ..proto.nvme.ini import NvmeFsInitiator
from ..proto.nvme.sqe import ReqType
from ..proto.virtio.fuse import FUSE_MAX_TRANSFER
from ..proto.virtio.virtiofs import VirtioFsHost
from ..obsv.tracer import NULL_TRACER
from ..sim.core import Environment, Event
from ..sim.cpu import CpuPool
from .adapters import FsError, O_DIRECT

__all__ = ["DpcAdapter", "DpfsAdapter", "tag_ino"]

PAGE = 4096


def tag_ino(ino: int, distributed: bool) -> int:
    """Tag an inode number for the shared hybrid-cache key space."""
    return (ino << 1) | (1 if distributed else 0)


class _TransportAdapterBase:
    """Shared request/response plumbing for both transports."""

    root_ino = 0

    #: flight-recorder hook; builders replace this with a live tracer
    tracer = NULL_TRACER

    def __init__(self, env: Environment, host_cpu: CpuPool, params: SystemParams):
        self.env = env
        self.host_cpu = host_cpu
        self.params = params
        self._rr = 0

    def _submitter(self) -> int:
        self._rr += 1
        return self._rr

    def _check(self, response: FileResponse) -> FileResponse:
        if not response.ok:
            raise FsError(response.status)
        return response

    # Transport-specific: implemented by subclasses.
    def _submit(self, request, write_payload=b"", read_len=0) -> Generator:
        raise NotImplementedError

    # -- metadata operations ----------------------------------------------------
    def lookup(self, p_ino, name):
        resp, _ = yield from self._submit(FileRequest(FileOp.LOOKUP, ino=p_ino, name=name))
        return self._check(resp).attr

    def create(self, p_ino, name, mode=0o644):
        resp, _ = yield from self._submit(
            FileRequest(FileOp.CREATE, ino=p_ino, name=name, mode=mode)
        )
        return self._check(resp).attr

    def mkdir(self, p_ino, name, mode=0o755):
        resp, _ = yield from self._submit(
            FileRequest(FileOp.MKDIR, ino=p_ino, name=name, mode=mode)
        )
        return self._check(resp).attr

    def readdir(self, ino):
        """getdents-style loop: each READDIR fills one page of the read
        buffer with dirents, and the ``aux`` cookie resumes the listing
        until it comes back 0."""
        out = []
        cookie = 0
        while True:
            resp, payload = yield from self._submit(
                FileRequest(FileOp.READDIR, ino=ino, offset=cookie, length=PAGE),
                read_len=PAGE,
            )
            self._check(resp)
            out.extend(
                (name, child) for name, child, _is_dir in unpack_dirents(payload)
            )
            if not resp.aux:
                return out
            cookie = resp.aux

    def stat(self, ino):
        resp, _ = yield from self._submit(FileRequest(FileOp.STAT, ino=ino))
        return self._check(resp).attr

    def unlink(self, p_ino, name):
        resp, _ = yield from self._submit(FileRequest(FileOp.UNLINK, ino=p_ino, name=name))
        self._check(resp)

    def rmdir(self, p_ino, name):
        resp, _ = yield from self._submit(FileRequest(FileOp.RMDIR, ino=p_ino, name=name))
        self._check(resp)

    def rename(self, p_ino, name, np_ino, nname):
        resp, _ = yield from self._submit(
            FileRequest(FileOp.RENAME, ino=p_ino, aux_ino=np_ino, name=name, extra=nname)
        )
        self._check(resp)

    def truncate(self, ino, size):
        resp, _ = yield from self._submit(FileRequest(FileOp.TRUNCATE, ino=ino, offset=size))
        self._check(resp)

    def fsync(self, ino):
        resp, _ = yield from self._submit(FileRequest(FileOp.FSYNC, ino=ino))
        self._check(resp)


class DpcAdapter(_TransportAdapterBase):
    """VFS <-> DPC over nvme-fs, with the hybrid cache on the hit path."""

    def __init__(
        self,
        env: Environment,
        ini: NvmeFsInitiator,
        host_cpu: CpuPool,
        params: SystemParams,
        cache: Optional[HostCachePlane] = None,
        req_type: int = ReqType.STANDALONE,
        breaker=None,
        base_flags: int = 0,
    ):
        super().__init__(env, host_cpu, params)
        self.ini = ini
        self.cache = cache
        self.req_type = req_type
        #: flags OR-ed into every request (e.g. ``FLAG_LOCAL`` routes a
        #: STANDALONE mount to the DPU-local striped NVMe plane); 0 leaves
        #: requests untouched
        self.base_flags = base_flags
        #: optional :class:`~repro.fault.CircuitBreaker` shared with the
        #: cache control plane: while it is open the flusher cannot drain
        #: dirty pages, so buffered writes degrade to write-through — the
        #: caller sees the backend error instead of silently accumulating
        #: unflushable dirty state
        self.breaker = breaker
        self.writethrough_ops = 0
        #: host-known file sizes grown by unflushed buffered writes
        self._sizes: dict[int, int] = {}

    def _tag(self, request: FileRequest) -> FileRequest:
        if not self.base_flags or request.flags & self.base_flags == self.base_flags:
            return request
        return dataclasses.replace(request, flags=request.flags | self.base_flags)

    def _submit(self, request, write_payload=b"", read_len=0):
        request = self._tag(request)
        with self.tracer.span("host.submit", track="host", op=request.op.name):
            yield from self.host_cpu.execute(self.params.fs_adapter_cost, tag="fs-adapter")
            resp = yield from self.ini.submit(
                request,
                write_payload=write_payload,
                read_len=read_len,
                req_type=self.req_type,
                submitter_id=self._submitter(),
            )
        return resp

    def _cache_key(self, ino: int) -> int:
        return tag_ino(ino, self.req_type == ReqType.DISTRIBUTED)

    def stat(self, ino):
        attr = yield from super().stat(ino)
        local = self._sizes.get(ino, 0)
        if attr is not None and local > attr.size:
            import dataclasses

            attr = dataclasses.replace(attr, size=local)
        return attr

    def truncate(self, ino, size):
        # Drop host-cached pages past the cut and reset the tracked size
        # before shrinking the backend.
        old = self._sizes.get(ino)
        self._sizes[ino] = size
        if self.cache is not None and old is not None and size < old:
            key = self._cache_key(ino)
            for lpn in range(size // PAGE, (old + PAGE - 1) // PAGE + 1):
                yield from self.cache.invalidate(key, lpn)
        yield from super().truncate(ino, size)

    # -- data path ------------------------------------------------------------------
    #: large direct I/O is split into sub-commands issued in parallel, as
    #: the kernel block layer does — this is what lets a single stream
    #: pipeline the DPU/backend stages
    MAX_IO = 256 * 1024

    def _parallel(self, gens):
        procs = [self.env.process(g) for g in gens]
        results = yield self.env.all_of(procs)
        return [results[p] for p in procs]

    def _submit_split(self, op, ino, offset, data, length, flags):
        """Issue a READ/WRITE as batched MAX_IO-sized sub-commands.

        The fan-out goes through :meth:`NvmeFsInitiator.submit_many` on one
        queue pair: every sub-command's SQE is produced back-to-back and a
        single doorbell MMIO announces the batch (the adapter cost is also
        paid once, as the split happens inside one kernel submission).
        """
        total = length if op == FileOp.READ else len(data)
        if total <= self.MAX_IO:
            resp = yield from self._submit(
                FileRequest(op, ino=ino, offset=offset, length=total, flags=flags),
                write_payload=data if op == FileOp.WRITE else b"",
                read_len=total if op == FileOp.READ else 0,
            )
            return [resp]

        batch = []
        pos = 0
        while pos < total:
            n = min(self.MAX_IO, total - pos)
            batch.append(
                (
                    self._tag(FileRequest(op, ino=ino, offset=offset + pos, length=n, flags=flags)),
                    data[pos : pos + n] if op == FileOp.WRITE else b"",
                    n if op == FileOp.READ else 0,
                )
            )
            pos += n
        with self.tracer.span("host.submit", track="host", op=op.name, batch=len(batch)):
            yield from self.host_cpu.execute(self.params.fs_adapter_cost, tag="fs-adapter")
            return (
                yield from self.ini.submit_many(
                    batch, req_type=self.req_type, submitter_id=self._submitter()
                )
            )

    def read(self, ino, offset, length, flags=0):
        with self.tracer.span("host.read", track="host", ino=ino, length=length):
            return (yield from self._read_impl(ino, offset, length, flags))

    def _read_impl(self, ino, offset, length, flags=0):
        """Hybrid-cache probe first; grouped nvme-fs READ for the misses."""
        if flags & O_DIRECT or self.cache is None or length == 0:
            results = yield from self._submit_split(
                FileOp.READ, ino, offset, b"", length, flags
            )
            out = bytearray()
            for resp, payload in results:
                self._check(resp)
                out += payload
            return bytes(out)
        key = self._cache_key(ino)
        first = offset // PAGE
        last = (offset + length - 1) // PAGE
        pages: list[Optional[bytes]] = []
        for lpn in range(first, last + 1):
            page = yield from self.cache.read(key, lpn)
            pages.append(page)
        # Fetch contiguous miss runs in single nvme-fs commands.
        i = 0
        while i < len(pages):
            if pages[i] is not None:
                i += 1
                continue
            j = i
            while j < len(pages) and pages[j] is None:
                j += 1
            run_off = (first + i) * PAGE
            run_len = (j - i) * PAGE
            resp, payload = yield from self._submit(
                FileRequest(FileOp.READ, ino=ino, offset=run_off, length=run_len, flags=flags),
                read_len=run_len,
            )
            self._check(resp)
            payload = payload.ljust(run_len, b"\0")
            for k in range(i, j):
                pages[k] = payload[(k - i) * PAGE : (k - i + 1) * PAGE]
            i = j
        blob = b"".join(pages)  # type: ignore[arg-type]
        start = offset - first * PAGE
        data = blob[start : start + length]
        # Trim to EOF using stat-free heuristics is wrong; ask the DPU only
        # when the tail page came fully zero-padded — callers that need exact
        # EOF semantics use stat().  We return the requested window.
        return data

    def write(self, ino, offset, data, flags=0):
        with self.tracer.span("host.write", track="host", ino=ino, length=len(data)):
            return (yield from self._write_impl(ino, offset, data, flags))

    def _write_impl(self, ino, offset, data, flags=0):
        """Direct -> nvme-fs WRITE; buffered -> host cache pages (dirty)."""
        bypass_cache = self.breaker is not None and self.breaker.state == "open"
        if bypass_cache:
            self.writethrough_ops += 1
        if flags & O_DIRECT or self.cache is None or bypass_cache:
            results = yield from self._submit_split(
                FileOp.WRITE, ino, offset, data, len(data), flags
            )
            for resp, _ in results:
                self._check(resp)
            # Direct writes extend the backend size themselves; remember it
            # so later buffered extensions are judged against it.
            end = offset + len(data)
            if end > self._sizes.get(ino, 0):
                self._sizes[ino] = end
            return len(data)
        key = self._cache_key(ino)
        pos = offset
        end = offset + len(data)
        while pos < end:
            lpn = pos // PAGE
            pstart = lpn * PAGE
            lo = pos - pstart
            hi = min(end - pstart, PAGE)
            chunk = data[pos - offset : pos - offset + (hi - lo)]
            if lo == 0 and hi == PAGE:
                page = chunk
            else:
                # Partial page: merge with the current content.
                old = yield from self.cache.read(key, lpn)
                if old is None:
                    resp, payload = yield from self._submit(
                        FileRequest(FileOp.READ, ino=ino, offset=pstart, length=PAGE),
                        read_len=PAGE,
                    )
                    self._check(resp)
                    old = payload.ljust(PAGE, b"\0")
                buf = bytearray(old.ljust(PAGE, b"\0"))
                buf[lo:hi] = chunk
                page = bytes(buf)
            yield from self.cache.write(key, lpn, page)
            pos = pstart + hi
        # The host VFS owns i_size for write-back files: the flusher's page
        # writes are non-extending, so extensions push an explicit size
        # catch-up (only when the file actually grows — random writes into a
        # preallocated file never pay this).
        if end > self._sizes.get(ino, 0):
            self._sizes[ino] = end
            resp, _ = yield from self._submit(FileRequest(FileOp.SETATTR, ino=ino, offset=end))
            self._check(resp)
        return len(data)


class DpfsAdapter(_TransportAdapterBase):
    """VFS <-> DPU over virtio-fs + FUSE (the DPFS baseline)."""

    def __init__(
        self,
        env: Environment,
        virtio: VirtioFsHost,
        host_cpu: CpuPool,
        params: SystemParams,
    ):
        super().__init__(env, host_cpu, params)
        self.virtio = virtio

    def _submit(self, request, write_payload=b"", read_len=0):
        with self.tracer.span("host.submit", track="host", op=request.op.name):
            resp = yield from self.virtio.submit(
                request,
                write_payload=write_payload,
                read_len=read_len,
                submitter_id=self._submitter(),
            )
        return resp

    def read(self, ino, offset, length, flags=0):
        with self.tracer.span("host.read", track="host", ino=ino, length=length):
            return (yield from self._read_impl(ino, offset, length, flags))

    def _read_impl(self, ino, offset, length, flags=0):
        out = bytearray()
        pos = 0
        while pos < length:
            n = min(FUSE_MAX_TRANSFER, length - pos)
            resp, payload = yield from self._submit(
                FileRequest(FileOp.READ, ino=ino, offset=offset + pos, length=n, flags=flags),
                read_len=n,
            )
            self._check(resp)
            out += payload
            if len(payload) < n:
                break
            pos += n
        return bytes(out)

    def write(self, ino, offset, data, flags=0):
        with self.tracer.span("host.write", track="host", ino=ino, length=len(data)):
            return (yield from self._write_impl(ino, offset, data, flags))

    def _write_impl(self, ino, offset, data, flags=0):
        pos = 0
        while pos < len(data):
            chunk = data[pos : pos + FUSE_MAX_TRANSFER]
            resp, _ = yield from self._submit(
                FileRequest(
                    FileOp.WRITE, ino=ino, offset=offset + pos, length=len(chunk), flags=flags
                ),
                write_payload=chunk,
            )
            self._check(resp)
            pos += len(chunk)
        return len(data)
