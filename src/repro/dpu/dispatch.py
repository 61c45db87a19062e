"""IO_Dispatch: the DPU-side request router (paper Figure 3).

Consumes decoded nvme-fs commands from the NVME-TGT driver (or FUSE
messages from the DPFS HAL) and dispatches them by the SQE's request-type
bit: ``0`` -> the standalone KVFS stack, ``1`` -> the offloaded DFS client.

Also owns the hybrid cache's backend hooks: dirty pages flushed by the
cache control plane are written back through whichever stack owns the
tagged inode, and prefetch fetches read through the same stacks.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..dfs.clients import DfsError, OffloadedDfsClient
from ..dfs.stripeio import StorageUnavailable
from ..fault.retry import RetryBudgetExceeded
from ..kv.client import KvTransactionError
from ..kvfs.fs import Kvfs, KvfsError
from ..obsv.quantiles import NULL_HUB
from ..obsv.tracer import NULL_TRACER
from ..params import SystemParams
from ..proto.filemsg import (
    Errno,
    FileAttr,
    FileOp,
    FileRequest,
    FileResponse,
    pack_dirents,
)
from ..proto.nvme.sqe import ReqType, Sqe
from ..sim.core import Environment, Event
from ..sim.cpu import CpuPool

__all__ = ["IoDispatch"]

PAGE = 4096
#: FileRequest.flags bit selecting the direct path (mirrors host O_DIRECT)
FLAG_DIRECT = 0x4000
#: FileRequest.flags bit routing a STANDALONE request to the DPU-local
#: striped NVMe data plane instead of the KVFS fabric (the SQE req_type is a
#: single bit, so the third backend is selected in-band via flags)
FLAG_LOCAL = 0x2000


class IoDispatch:
    """Routes file requests to KVFS or the DFS client on the DPU."""

    #: flight-recorder hook; builders replace this with a live tracer
    tracer = NULL_TRACER
    #: quantile-sketch hook; builders replace this with a live SketchHub
    sketches = NULL_HUB

    def __init__(
        self,
        env: Environment,
        dpu_cpu: CpuPool,
        params: SystemParams,
        kvfs: Optional[Kvfs] = None,
        dfs_client: Optional[OffloadedDfsClient] = None,
        cache_ctrl=None,
        local_fs=None,
    ):
        self.env = env
        self.dpu_cpu = dpu_cpu
        self.params = params
        self.kvfs = kvfs
        self.dfs_client = dfs_client
        self.cache_ctrl = cache_ctrl
        #: DPU-local file system over the striped NVMe array, exposed via the
        #: :class:`~repro.host.adapters.FsAdapter` surface (an Ext4Adapter
        #: running on DPU cores); serves STANDALONE requests carrying
        #: ``FLAG_LOCAL``
        self.local_fs = local_fs
        self.standalone_ops = 0
        self.distributed_ops = 0
        self.local_ops = 0

    # ------------------------------------------------------------------ entry point
    def backend(
        self, sqe: Optional[Sqe], request: FileRequest, payload: bytes
    ) -> Generator[Event, None, tuple[FileResponse, bytes]]:
        """The NVME-TGT / DPFS-HAL backend callable.

        Each stack maps its own errors to an errno.  What escapes them is a
        backend that stayed unreachable past the whole retry envelope: that
        completes the command with ``EIO`` instead of aborting the simulation.
        """
        req_type = sqe.req_type if sqe is not None else ReqType.STANDALONE
        t0 = self.env.now
        try:
            if req_type == ReqType.STANDALONE:
                if request.flags & FLAG_LOCAL:
                    self.local_ops += 1
                    if self.local_fs is None:
                        return FileResponse(status=Errno.EINVAL), b""
                    with self.tracer.span(
                        "dispatch.local", track="dpu", op=request.op.name
                    ):
                        res = yield from self._local_op(request, payload)
                    self.sketches.observe("dispatch.local", self.env.now - t0)
                    return res
                self.standalone_ops += 1
                if self.kvfs is None:
                    return FileResponse(status=Errno.EINVAL), b""
                with self.tracer.span("dispatch.kvfs", track="dpu", op=request.op.name):
                    res = yield from self._kvfs_op(request, payload)
                self.sketches.observe("dispatch.kvfs", self.env.now - t0)
                return res
            self.distributed_ops += 1
            if self.dfs_client is None:
                return FileResponse(status=Errno.EINVAL), b""
            with self.tracer.span("dispatch.dfs", track="dpu", op=request.op.name):
                res = yield from self._dfs_op(request, payload)
            self.sketches.observe("dispatch.dfs", self.env.now - t0)
            return res
        except (RetryBudgetExceeded, StorageUnavailable, KvTransactionError):
            return FileResponse(status=Errno.EIO), b""

    # ------------------------------------------------------------------ KVFS stack
    def _kvfs_op(
        self, req: FileRequest, payload: bytes
    ) -> Generator[Event, None, tuple[FileResponse, bytes]]:
        fs = self.kvfs
        try:
            op = req.op
            if op == FileOp.LOOKUP:
                attr = yield from fs.lookup(req.ino, req.name)
                return FileResponse(attr=attr), b""
            if op == FileOp.CREATE:
                attr = yield from fs.create(req.ino, req.name, req.mode or 0o644)
                return FileResponse(attr=attr), b""
            if op == FileOp.MKDIR:
                attr = yield from fs.mkdir(req.ino, req.name, req.mode or 0o755)
                return FileResponse(attr=attr), b""
            if op == FileOp.STAT:
                attr = yield from fs.stat(req.ino)
                return FileResponse(attr=attr), b""
            if op == FileOp.READDIR:
                entries = yield from fs.readdir(req.ino)
                return self._paginate_dirents(entries, req.offset, req.length)
            if op == FileOp.UNLINK:
                yield from fs.unlink(req.ino, req.name)
                return FileResponse(), b""
            if op == FileOp.RMDIR:
                yield from fs.rmdir(req.ino, req.name)
                return FileResponse(), b""
            if op == FileOp.RENAME:
                yield from fs.rename(req.ino, req.name, req.aux_ino, req.extra)
                return FileResponse(), b""
            if op == FileOp.TRUNCATE:
                yield from fs.truncate(req.ino, req.offset)
                if self.cache_ctrl is not None:
                    self.cache_ctrl.dif_drop_file(req.ino << 1)
                return FileResponse(), b""
            if op == FileOp.SETATTR:
                # Extend-size setattr (buffered-write metadata catch-up).
                attr = yield from fs.stat(req.ino)
                if req.offset > attr.size:
                    import dataclasses

                    yield from fs.setattr(dataclasses.replace(attr, size=req.offset))
                return FileResponse(), b""
            if op == FileOp.WRITE:
                n = yield from fs.write(req.ino, req.offset, payload)
                self._dif_drop_range(req.ino << 1, req.offset, len(payload))
                return FileResponse(size=n), b""
            if op == FileOp.READ:
                data = yield from fs.read(req.ino, req.offset, req.length)
                if (
                    self.cache_ctrl is not None
                    and not req.flags & FLAG_DIRECT
                    and data
                ):
                    self._spawn_fills(req.ino << 1, req.offset, data)
                return FileResponse(size=len(data)), data
            if op == FileOp.FSYNC:
                if self.cache_ctrl is not None:
                    yield from self.cache_ctrl.flush_all()
                yield from fs.fsync(req.ino)
                return FileResponse(), b""
            return FileResponse(status=Errno.EINVAL), b""
        except KvfsError as e:
            return FileResponse(status=e.errno_code), b""

    # ------------------------------------------------------------------ local plane
    def _local_op(
        self, req: FileRequest, payload: bytes
    ) -> Generator[Event, None, tuple[FileResponse, bytes]]:
        """DPU-local data plane: an ext4-sim over the striped NVMe array.

        ``fs`` speaks the FsAdapter surface (Ext4Adapter on DPU cores), so
        the striped device fan-out happens underneath the unmodified file
        system.  Errors surface as ``errno_code``-carrying OSErrors from
        either the adapter or the fs proper.
        """
        fs = self.local_fs
        try:
            op = req.op
            if op == FileOp.LOOKUP:
                attr = yield from fs.lookup(req.ino, req.name)
                return FileResponse(attr=attr), b""
            if op == FileOp.CREATE:
                attr = yield from fs.create(req.ino, req.name, req.mode or 0o644)
                return FileResponse(attr=attr), b""
            if op == FileOp.MKDIR:
                attr = yield from fs.mkdir(req.ino, req.name, req.mode or 0o755)
                return FileResponse(attr=attr), b""
            if op == FileOp.STAT:
                attr = yield from fs.stat(req.ino)
                return FileResponse(attr=attr), b""
            if op == FileOp.READDIR:
                entries = yield from fs.readdir(req.ino)
                return self._paginate_dirents(entries, req.offset, req.length)
            if op == FileOp.UNLINK:
                yield from fs.unlink(req.ino, req.name)
                return FileResponse(), b""
            if op == FileOp.RMDIR:
                yield from fs.rmdir(req.ino, req.name)
                return FileResponse(), b""
            if op == FileOp.RENAME:
                yield from fs.rename(req.ino, req.name, req.aux_ino, req.extra)
                return FileResponse(), b""
            if op == FileOp.TRUNCATE:
                yield from fs.truncate(req.ino, req.offset)
                return FileResponse(), b""
            if op == FileOp.SETATTR:
                attr = yield from fs.stat(req.ino)
                if req.offset > attr.size:
                    yield from fs.truncate(req.ino, req.offset)
                return FileResponse(), b""
            if op == FileOp.WRITE:
                n = yield from fs.write(req.ino, req.offset, payload, req.flags)
                return FileResponse(size=n), b""
            if op == FileOp.READ:
                data = yield from fs.read(req.ino, req.offset, req.length, req.flags)
                return FileResponse(size=len(data)), data
            if op == FileOp.FSYNC:
                yield from fs.fsync(req.ino)
                return FileResponse(), b""
            return FileResponse(status=Errno.EINVAL), b""
        except OSError as e:
            return FileResponse(status=getattr(e, "errno_code", Errno.EIO)), b""

    # ------------------------------------------------------------------ DFS stack
    def _dfs_op(
        self, req: FileRequest, payload: bytes
    ) -> Generator[Event, None, tuple[FileResponse, bytes]]:
        client = self.dfs_client
        try:
            op = req.op
            if op in (FileOp.CREATE, FileOp.MKDIR):
                mode = req.mode or (0o755 if op == FileOp.MKDIR else 0o644)
                if op == FileOp.MKDIR:
                    mode |= 0o040000
                else:
                    mode |= 0o100000
                attr = yield from client.create(req.ino, req.name, mode)
                return FileResponse(attr=attr), b""
            if op == FileOp.LOOKUP:
                attr = yield from client.lookup(req.ino, req.name)
                if attr is None:
                    return FileResponse(status=Errno.ENOENT), b""
                return FileResponse(attr=attr), b""
            if op == FileOp.STAT:
                attr = yield from client.getattr(req.ino)
                if attr is None:
                    return FileResponse(status=Errno.ENOENT), b""
                return FileResponse(attr=attr), b""
            if op == FileOp.READDIR:
                entries = yield from client.readdir(req.ino)
                return self._paginate_dirents(entries, req.offset, req.length)
            if op in (FileOp.UNLINK, FileOp.RMDIR):
                yield from client.unlink(req.ino, req.name)
                return FileResponse(), b""
            if op == FileOp.WRITE:
                n = yield from client.write(req.ino, req.offset, payload)
                self._dif_drop_range((req.ino << 1) | 1, req.offset, len(payload))
                return FileResponse(size=n), b""
            if op == FileOp.READ:
                data = yield from client.read(req.ino, req.offset, req.length)
                if (
                    self.cache_ctrl is not None
                    and not req.flags & FLAG_DIRECT
                    and data
                ):
                    self._spawn_fills((req.ino << 1) | 1, req.offset, data)
                return FileResponse(size=len(data)), data
            if op == FileOp.FSYNC:
                if self.cache_ctrl is not None:
                    yield from self.cache_ctrl.flush_all()
                yield from client.flush_metadata()
                return FileResponse(), b""
            if op == FileOp.DELEG_ACQUIRE:
                ok = yield from client.acquire_file_delegation(req.ino)
                return FileResponse(aux=1 if ok else 0), b""
            return FileResponse(status=Errno.EINVAL), b""
        except DfsError as e:
            return FileResponse(status=e.errno_code), b""

    @staticmethod
    def _paginate_dirents(entries, cookie: int, room: int) -> tuple[FileResponse, bytes]:
        """getdents-style pagination into the READDIR read buffer.

        Packs entries from ``cookie`` until ``room`` bytes are used, always
        at least one (a maximal dirent fits a page).  ``aux`` carries the
        next cookie, 0 once the listing is complete; ``size`` is the
        payload length.
        """
        out = []
        used = 0
        i = int(cookie)
        while i < len(entries):
            name, ino = entries[i]
            rec = 11 + len(name)
            if out and used + rec > room:
                break
            out.append((name, ino, False))
            used += rec
            i += 1
        next_cookie = i if i < len(entries) else 0
        blob = pack_dirents(out)
        return FileResponse(aux=next_cookie, size=len(blob)), blob

    # ------------------------------------------------------------------ cache hooks
    def _dif_drop_range(self, tagged_ino: int, offset: int, length: int) -> None:
        """Direct writes bypass the flusher: invalidate stale DIF tags."""
        if self.cache_ctrl is None or length <= 0:
            return
        first = offset // PAGE
        last = (offset + length + PAGE - 1) // PAGE
        self.cache_ctrl.dif_drop_range(tagged_ino, first, last - first)

    def _spawn_fills(self, tagged_ino: int, offset: int, data: bytes) -> None:
        """Install freshly-read pages into the host cache, off critical path.

        The whole run goes through one control-plane call (one spawned
        process), not one process per 4 KiB page.
        """
        if offset % PAGE:
            return  # only page-aligned reads feed the cache
        pages = [
            data[i : i + PAGE]
            for i in range(0, len(data), PAGE)
            if len(data[i : i + PAGE]) == PAGE
        ]
        if pages:
            self.env.process(
                self.cache_ctrl.fill_run(tagged_ino, offset // PAGE, pages),
                name="demand-fill",
            )

    def invalidate_dfs_file(self, ino: int) -> Generator:
        """Coherence recall hook: flush-and-drop every cached page of a DFS
        file whose delegation the MDS just recalled.

        Another client is about to write the file; pages this node cached
        under the old delegation must not serve future reads.  Returns the
        number of pages dropped (0 without a cache).
        """
        if self.cache_ctrl is None:
            yield from ()
            return 0
        tagged = (ino << 1) | 1
        dropped = yield from self.cache_ctrl.invalidate_inode(tagged)
        return dropped

    def cache_writeback(self, tagged_ino: int, lpn: int, data: bytes) -> Generator:
        """Hybrid-cache flusher hook: route the dirty page to its stack.

        A page whose file has been unlinked or truncated away is dropped,
        as any write-back cache does.
        """
        ino = tagged_ino >> 1
        try:
            if tagged_ino & 1:
                yield from self.dfs_client.write(ino, lpn * PAGE, data)
            else:
                # Non-extending: the host VFS owns i_size and sends explicit
                # size catch-ups; the flusher only moves page payloads.
                yield from self.kvfs.write(ino, lpn * PAGE, data, extend=False)
        except (KvfsError, DfsError):
            pass

    def cache_fetch(self, tagged_ino: int, lpn: int) -> Generator:
        """Hybrid-cache prefetcher hook.

        Reads at the backend's natural granularity (the 8 KiB KVFS/stripe
        block containing the page) and returns every 4 KiB page it got, so
        one backend round trip feeds two cache pages.
        """
        ino = tagged_ino >> 1
        unit = self.params.kvfs_block_size
        base = (lpn * PAGE // unit) * unit
        if tagged_ino & 1:
            data = yield from self.dfs_client.read(ino, base, unit)
        else:
            try:
                data = yield from self.kvfs.read(ino, base, unit, charge=0.3)
            except KvfsError:
                return None
        if not data:
            return None
        data = data.ljust(unit, b"\0")
        return [
            (base // PAGE + i, data[i * PAGE : (i + 1) * PAGE])
            for i in range(unit // PAGE)
        ]

    def cache_fetch_run(self, tagged_ino: int, lpn: int, npages: int) -> Generator:
        """Run-granular prefetcher hook (adaptive read-ahead pipelining).

        One backend round trip covers a whole read-ahead chunk instead of
        one 8 KiB block: the chunk's pages arrive together and the per-op
        backend overhead (KV get service, EC stripe math) is amortised
        across the run.  Pages beyond EOF are simply not returned — the
        control plane releases their pending claims.
        """
        ino = tagged_ino >> 1
        base = lpn * PAGE
        length = npages * PAGE
        try:
            if tagged_ino & 1:
                data = yield from self.dfs_client.read(ino, base, length)
            else:
                data = yield from self.kvfs.read(ino, base, length, charge=0.3)
        except (KvfsError, DfsError):
            return None
        if not data:
            return None
        got_pages = (len(data) + PAGE - 1) // PAGE
        data = data.ljust(got_pages * PAGE, b"\0")
        return [
            (lpn + i, data[i * PAGE : (i + 1) * PAGE]) for i in range(got_pages)
        ]
