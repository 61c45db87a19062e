"""IO_Dispatch: the DPU-side request router (paper Figure 3).

Consumes decoded nvme-fs commands from the NVME-TGT driver (or FUSE
messages from the DPFS HAL) and routes each one to one of three stacks.
The SQE's request-type bit picks the first two: ``0`` -> the standalone
KVFS stack, ``1`` -> the offloaded DFS client.  That bit is all the SQE
has, so the third stack, the DPU-local file system over the striped NVMe
array, is selected in-band: a standalone request carrying ``FLAG_LOCAL``.

Every stack is one ``FileOp -> call`` table, and one function,
:meth:`IoDispatch._serve`, turns any stack's result into the op's
:class:`FileResponse`.

Also owns the hybrid cache's backend hooks: dirty pages flushed by the
cache control plane are written back through whichever stack owns the
tagged inode, and prefetch fetches read through the same stacks.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Generator, NamedTuple, Optional

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

#: ``call(fs, request, payload) -> generator``: one stack's handler for one op
OpCall = Callable[..., Generator]


def _grow_by_setattr(fs, req: FileRequest, _payload) -> Generator:
    """Extend-size SETATTR (buffered-write metadata catch-up); never shrinks."""
    attr = yield from fs.stat(req.ino)
    if req.offset > attr.size:
        yield from fs.setattr(dataclasses.replace(attr, size=req.offset))


def _grow_by_truncate(fs, req: FileRequest, _payload) -> Generator:
    """The same grow-only SETATTR on a file system without ``setattr``."""
    attr = yield from fs.stat(req.ino)
    if req.offset > attr.size:
        yield from fs.truncate(req.ino, req.offset)


_KVFS_OPS: dict[FileOp, OpCall] = {
    FileOp.LOOKUP: lambda fs, r, _: fs.lookup(r.ino, r.name),
    FileOp.CREATE: lambda fs, r, _: fs.create(r.ino, r.name, r.mode or 0o644),
    FileOp.MKDIR: lambda fs, r, _: fs.mkdir(r.ino, r.name, r.mode or 0o755),
    FileOp.STAT: lambda fs, r, _: fs.stat(r.ino),
    FileOp.READDIR: lambda fs, r, _: fs.readdir(r.ino),
    FileOp.UNLINK: lambda fs, r, _: fs.unlink(r.ino, r.name),
    FileOp.RMDIR: lambda fs, r, _: fs.rmdir(r.ino, r.name),
    FileOp.RENAME: lambda fs, r, _: fs.rename(r.ino, r.name, r.aux_ino, r.extra),
    FileOp.TRUNCATE: lambda fs, r, _: fs.truncate(r.ino, r.offset),
    FileOp.SETATTR: _grow_by_setattr,
    FileOp.WRITE: lambda fs, r, data: fs.write(r.ino, r.offset, data),
    FileOp.READ: lambda fs, r, _: fs.read(r.ino, r.offset, r.length),
    FileOp.FSYNC: lambda fs, r, _: fs.fsync(r.ino),
}

#: the FsAdapter surface (an Ext4Adapter on DPU cores): KVFS's calls, but
#: data ops carry the request flags and SETATTR grows by truncate
_LOCAL_OPS: dict[FileOp, OpCall] = {
    **_KVFS_OPS,
    FileOp.WRITE: lambda fs, r, data: fs.write(r.ino, r.offset, data, r.flags),
    FileOp.READ: lambda fs, r, _: fs.read(r.ino, r.offset, r.length, r.flags),
    FileOp.SETATTR: _grow_by_truncate,
}

_DFS_OPS: dict[FileOp, OpCall] = {
    FileOp.CREATE: lambda c, r, _: c.create(r.ino, r.name, (r.mode or 0o644) | 0o100000),
    FileOp.MKDIR: lambda c, r, _: c.create(r.ino, r.name, (r.mode or 0o755) | 0o040000),
    FileOp.LOOKUP: lambda c, r, _: c.lookup(r.ino, r.name),
    FileOp.STAT: lambda c, r, _: c.getattr(r.ino),
    FileOp.READDIR: lambda c, r, _: c.readdir(r.ino),
    FileOp.UNLINK: lambda c, r, _: c.unlink(r.ino, r.name),
    FileOp.RMDIR: lambda c, r, _: c.unlink(r.ino, r.name),
    FileOp.WRITE: lambda c, r, data: c.write(r.ino, r.offset, data),
    FileOp.READ: lambda c, r, _: c.read(r.ino, r.offset, r.length),
    FileOp.FSYNC: lambda c, r, _: c.flush_metadata(),
    FileOp.DELEG_ACQUIRE: lambda c, r, _: c.acquire_file_delegation(r.ino),
}

#: ops whose result is a :class:`FileAttr` (``None``: no such entry)
_ATTR_OPS = frozenset({FileOp.LOOKUP, FileOp.CREATE, FileOp.MKDIR, FileOp.STAT})


class _Stack(NamedTuple):
    """One DPU file stack as dispatch sees it."""

    name: str  # span and sketch name
    ops: dict[FileOp, OpCall]
    errors: type  # the stack's error type; its ``errno_code`` is the status
    tag: Optional[int]  # hybrid-cache tag bit of its inodes; None: uncached


_KVFS = _Stack("dispatch.kvfs", _KVFS_OPS, KvfsError, 0)
_LOCAL = _Stack("dispatch.local", _LOCAL_OPS, OSError, None)
_DFS = _Stack("dispatch.dfs", _DFS_OPS, DfsError, 1)


class IoDispatch:
    """Routes file requests to KVFS, the DFS client or the local plane."""

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
        if req_type != ReqType.STANDALONE:
            self.distributed_ops += 1
            stack, fs = _DFS, self.dfs_client
        elif request.flags & FLAG_LOCAL:
            self.local_ops += 1
            stack, fs = _LOCAL, self.local_fs
        else:
            self.standalone_ops += 1
            stack, fs = _KVFS, self.kvfs
        if fs is None:
            return FileResponse(status=Errno.EINVAL), b""
        try:
            with self.tracer.span(stack.name, track="dpu", op=request.op.name):
                res = yield from self._serve(stack, fs, request, payload)
        except (RetryBudgetExceeded, StorageUnavailable, KvTransactionError):
            return FileResponse(status=Errno.EIO), b""
        self.sketches.observe(stack.name, self.env.now - t0)
        return res

    def _serve(
        self, stack: _Stack, fs, req: FileRequest, payload: bytes
    ) -> Generator[Event, None, tuple[FileResponse, bytes]]:
        """Run ``req`` on one stack and shape its result by op."""
        op = req.op
        call = stack.ops.get(op)
        if call is None:
            return FileResponse(status=Errno.EINVAL), b""
        cache = self.cache_ctrl if stack.tag is not None else None
        tagged = (req.ino << 1) | (stack.tag or 0)
        try:
            if cache is not None and op == FileOp.FSYNC:
                yield from cache.flush_all()
            elif cache is not None and op == FileOp.TRUNCATE:
                # A write-back in flight may carry a page the host has
                # just dropped past the cut: let it land first.
                yield from cache.writebacks_landed()
            out = yield from call(fs, req, payload)
        except stack.errors as e:
            return FileResponse(status=getattr(e, "errno_code", Errno.EIO)), b""
        if op in _ATTR_OPS:
            if out is None:
                return FileResponse(status=Errno.ENOENT), b""
            return FileResponse(attr=out), b""
        if op == FileOp.READ:
            if cache is not None and not req.flags & FLAG_DIRECT and out:
                self._spawn_fills(tagged, req.offset, out)
            return FileResponse(size=len(out)), out
        if op == FileOp.WRITE:
            if cache is not None and payload:
                # Direct writes bypass the flusher: drop stale DIF tags.
                first = req.offset // PAGE
                last = (req.offset + len(payload) + PAGE - 1) // PAGE
                cache.dif_drop_range(tagged, first, last - first)
            return FileResponse(size=out), b""
        if op == FileOp.READDIR:
            return self._paginate_dirents(out, req.offset, req.length)
        if op == FileOp.DELEG_ACQUIRE:
            return FileResponse(aux=1 if out else 0), b""
        if cache is not None and op == FileOp.TRUNCATE:
            cache.dif_drop_file(tagged)
        return FileResponse(), b""

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
    def _spawn_fills(self, tagged_ino: int, offset: int, data: bytes) -> None:
        """Install freshly-read pages into the host cache, off critical path.

        The whole run goes through one control-plane call (one spawned
        process), not one process per 4 KiB page.
        """
        if offset % PAGE:
            return  # only page-aligned reads feed the cache
        pages = [data[i : i + PAGE] for i in range(0, len(data) - PAGE + 1, PAGE)]
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
        return (yield from self.cache_ctrl.invalidate_inode((ino << 1) | 1))

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
