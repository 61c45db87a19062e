"""A small VFS layer: mounts, path resolution, fd table, dentry cache.

Application threads (the workload generators) use this POSIX-ish surface;
the VFS charges syscall cost, resolves paths component-by-component through
a dentry cache (so hot lookups don't hit the backend — the paper notes KVFS
"is compatible with VFS, thus the inode cache and dentry cache can also be
used to speed up the file or directory lookups"), and forwards to whichever
adapter owns the longest-matching mount prefix.  ``open(O_CREAT)`` of a name
the dentry cache does not know is an atomic open: CREATE first, LOOKUP only
if that says EEXIST, so creating a file costs one command.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..params import SystemParams
from ..proto.filemsg import Errno, FileAttr
from ..sim.core import Environment, Event
from ..sim.cpu import CpuPool
from .adapters import FsAdapter, FsError, O_DIRECT

__all__ = ["Vfs", "OpenFile", "O_DIRECT", "O_CREAT"]

O_CREAT = 0x40


@dataclass
class OpenFile:
    """An open file description."""

    fd: int
    adapter: FsAdapter
    ino: int
    flags: int
    path: str


class Vfs:
    """The mount table + path layer."""

    def __init__(self, env: Environment, host_cpu: CpuPool, params: SystemParams):
        self.env = env
        self.host_cpu = host_cpu
        self.params = params
        self._mounts: list[tuple[str, FsAdapter]] = []
        #: (mount prefix, in-fs path) -> (ino, is_dir)
        self._dcache: dict[tuple[str, str], tuple[int, bool]] = {}
        self._fds: dict[int, OpenFile] = {}
        self._next_fd = 3
        self.dcache_hits = 0
        self.dcache_misses = 0

    # -- mounts ---------------------------------------------------------------
    def mount(self, prefix: str, adapter: FsAdapter) -> None:
        prefix = "/" + prefix.strip("/")
        if any(p == prefix for p, _ in self._mounts):
            raise ValueError(f"{prefix} already mounted")
        self._mounts.append((prefix, adapter))
        self._mounts.sort(key=lambda m: -len(m[0]))

    def _mount_of(self, path: str) -> tuple[str, FsAdapter, str]:
        path = "/" + path.strip("/")
        for prefix, adapter in self._mounts:
            if path == prefix or path.startswith(prefix.rstrip("/") + "/") or prefix == "/":
                rel = path[len(prefix) :].strip("/")
                return prefix, adapter, rel
        raise FsError(Errno.ENOENT, f"no mount for {path}")

    # -- path resolution --------------------------------------------------------
    def _syscall(self) -> Generator[Event, None, None]:
        yield from self.host_cpu.execute(self.params.syscall_cost, tag="syscall")

    def _resolve(
        self, prefix: str, adapter: FsAdapter, rel: str, parent_only: bool = False
    ) -> Generator[Event, None, tuple[int, Optional[bytes]]]:
        """Resolve ``rel`` inside a mount -> (ino, last component or None)."""
        comps = [c.encode() for c in rel.split("/") if c]
        if parent_only:
            if not comps:
                raise FsError(Errno.EINVAL, "path has no final component")
            walk, final = comps[:-1], comps[-1]
        else:
            walk, final = comps, None
        ino = adapter.root_ino
        sofar = ""
        for comp in walk:
            sofar = f"{sofar}/{comp.decode(errors='replace')}"
            cached = self._dcache.get((prefix, sofar))
            if cached is not None:
                self.dcache_hits += 1
                ino = cached[0]
                continue
            self.dcache_misses += 1
            attr = yield from adapter.lookup(ino, comp)
            if attr is None:
                raise FsError(Errno.ENOENT, sofar)
            self._dcache[(prefix, sofar)] = (attr.ino, attr.is_dir)
            ino = attr.ino
        return ino, final

    def _invalidate(self, prefix: str, rel: str) -> None:
        key = "/" + rel.strip("/")
        for k in [k for k in self._dcache if k[0] == prefix and (k[1] == key or k[1].startswith(key + "/"))]:
            del self._dcache[k]

    # -- file API ---------------------------------------------------------------------
    def open(self, path: str, flags: int = 0, mode: int = 0o644) -> Generator[Event, None, OpenFile]:
        yield from self._syscall()
        prefix, adapter, rel = self._mount_of(path)
        p_ino, name = yield from self._resolve(prefix, adapter, rel, parent_only=True)
        key = (prefix, "/" + rel.strip("/"))
        attr = None
        if flags & O_CREAT and key not in self._dcache:
            # Atomic open: an uncached name is created first, so a fresh file
            # costs one command; on EEXIST the LOOKUP below opens it.
            try:
                attr = yield from adapter.create(p_ino, name, mode)
            except FsError as e:
                if e.errno_code != Errno.EEXIST:
                    raise
        if attr is None:
            try:
                attr = yield from adapter.lookup(p_ino, name)
            except FsError as e:
                if e.errno_code != Errno.ENOENT or not flags & O_CREAT:
                    raise
        if attr is None:
            if not flags & O_CREAT:
                raise FsError(Errno.ENOENT, path)
            attr = yield from adapter.create(p_ino, name, mode)
        self._dcache[key] = (attr.ino, attr.is_dir)
        of = OpenFile(self._next_fd, adapter, attr.ino, flags, path)
        self._next_fd += 1
        self._fds[of.fd] = of
        return of

    def close(self, of: OpenFile) -> Generator[Event, None, None]:
        yield from self._syscall()
        self._fds.pop(of.fd, None)

    def read(self, of: OpenFile, offset: int, length: int) -> Generator[Event, None, bytes]:
        yield from self._syscall()
        return (yield from of.adapter.read(of.ino, offset, length, of.flags))

    def write(self, of: OpenFile, offset: int, data: bytes) -> Generator[Event, None, int]:
        yield from self._syscall()
        return (yield from of.adapter.write(of.ino, offset, data, of.flags))

    def fsync(self, of: OpenFile) -> Generator[Event, None, None]:
        yield from self._syscall()
        yield from of.adapter.fsync(of.ino)

    # -- namespace API --------------------------------------------------------------------
    def stat(self, path: str) -> Generator[Event, None, FileAttr]:
        yield from self._syscall()
        prefix, adapter, rel = self._mount_of(path)
        if not rel:
            return (yield from adapter.stat(adapter.root_ino))
        ino, _ = yield from self._resolve(prefix, adapter, rel)
        return (yield from adapter.stat(ino))

    def mkdir(self, path: str, mode: int = 0o755) -> Generator[Event, None, FileAttr]:
        yield from self._syscall()
        prefix, adapter, rel = self._mount_of(path)
        p_ino, name = yield from self._resolve(prefix, adapter, rel, parent_only=True)
        attr = yield from adapter.mkdir(p_ino, name, mode)
        self._dcache[(prefix, "/" + rel.strip("/"))] = (attr.ino, True)
        return attr

    def readdir(self, path: str) -> Generator[Event, None, list[tuple[bytes, int]]]:
        yield from self._syscall()
        prefix, adapter, rel = self._mount_of(path)
        if not rel:
            ino = adapter.root_ino
        else:
            ino, _ = yield from self._resolve(prefix, adapter, rel)
        return (yield from adapter.readdir(ino))

    def unlink(self, path: str) -> Generator[Event, None, None]:
        yield from self._syscall()
        prefix, adapter, rel = self._mount_of(path)
        p_ino, name = yield from self._resolve(prefix, adapter, rel, parent_only=True)
        yield from adapter.unlink(p_ino, name)
        self._invalidate(prefix, rel)

    def rmdir(self, path: str) -> Generator[Event, None, None]:
        yield from self._syscall()
        prefix, adapter, rel = self._mount_of(path)
        p_ino, name = yield from self._resolve(prefix, adapter, rel, parent_only=True)
        yield from adapter.rmdir(p_ino, name)
        self._invalidate(prefix, rel)

    def rename(self, old: str, new: str) -> Generator[Event, None, None]:
        yield from self._syscall()
        prefix, adapter, rel_old = self._mount_of(old)
        prefix2, adapter2, rel_new = self._mount_of(new)
        if adapter is not adapter2:
            raise FsError(Errno.EINVAL, "cross-mount rename")
        p_ino, name = yield from self._resolve(prefix, adapter, rel_old, parent_only=True)
        np_ino, nname = yield from self._resolve(prefix2, adapter2, rel_new, parent_only=True)
        yield from adapter.rename(p_ino, name, np_ino, nname)
        self._invalidate(prefix, rel_old)
        self._invalidate(prefix2, rel_new)

    def truncate(self, path: str, size: int) -> Generator[Event, None, None]:
        yield from self._syscall()
        prefix, adapter, rel = self._mount_of(path)
        ino, _ = yield from self._resolve(prefix, adapter, rel)
        yield from adapter.truncate(ino, size)
