"""KVFS: the POSIX-compliant standalone file service running in DPC.

KVFS runs **on the DPU** and converts VFS file operations into operations on
the disaggregated KV store (paper §3.4), replacing the server's local disks:

* path components resolve through inode KVs starting at root inode 0;
* attributes live in attribute KVs (cached DPU-side; KVFS is the single
  writer for its host, so the cache is authoritative and persisted
  write-through on every change);
* files < 8 KiB live in a single small-file KV, rewritten whole on update;
* larger files convert permanently to the big-file format: 8 KiB blocks
  updated in place, indexed by a file-object extent map.

Every public method is a simulation generator: KV round trips cross the
fabric with real latencies, and each operation charges DPU CPU time — the
cost that saturates the DPU at 128 threads in Figure 7.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Generator, Optional

from ..kv.client import KvClient
from ..params import SystemParams
from ..proto.filemsg import Errno, FileAttr
from ..sim.core import Environment, Event
from ..sim.cpu import CpuPool
from . import schema
from .fileobject import FileObject

__all__ = ["Kvfs", "KvfsError"]

S_IFDIR = 0o040000
S_IFREG = 0o100000
S_IFLNK = 0o120000

#: attr.blocks sentinel marking the big-file format (block count + 1)
_BIG_BIAS = 1


class _RootGate:
    """A latch concurrent mount-time initialisers can wait on."""

    def __init__(self, env: Environment):
        self._env = env
        self._event = env.event()

    def wait(self):
        if self._event.triggered:
            return self._env.timeout(0)
        return self._event

    def open(self) -> None:
        self._event.succeed()


class KvfsError(OSError):
    """A file-system error carrying an :class:`Errno`."""

    def __init__(self, errno: Errno, msg: str = ""):
        super().__init__(int(errno), msg or errno.name)
        self.errno_code = errno


class Kvfs:
    """The KV file system (DPU side)."""

    def __init__(
        self,
        env: Environment,
        kv: KvClient,
        dpu_cpu: CpuPool,
        params: SystemParams,
        clock: Optional[callable] = None,
    ):
        self.env = env
        self.kv = kv
        self.dpu_cpu = dpu_cpu
        self.params = params
        self.block_size = params.kvfs_block_size
        self.small_limit = params.small_file_threshold
        self._clock = clock or (lambda: int(env.now * 1e6))
        #: DPU-side caches (authoritative: single writer per host)
        self._attr_cache: dict[int, FileAttr] = {}
        self._fobj_cache: dict[int, FileObject] = {}
        #: inode-number allocator lease
        self._ino_next = 0
        self._ino_limit = 0
        self.ops = {"read": 0, "write": 0, "meta": 0}
        self._root_ready = False

    # ------------------------------------------------------------------ helpers
    def _charge(self, fraction: float = 1.0) -> Generator[Event, None, None]:
        yield from self.dpu_cpu.execute(
            self.params.dpu_kv_op_cost * fraction, tag="kvfs"
        )

    def _parallel(self, gens: list) -> Generator[Event, None, list]:
        if len(gens) == 1:
            return [(yield from gens[0])]  # a fan-out of one needs no process
        procs = [self.env.process(g) for g in gens]
        if not procs:
            return []
        results = yield self.env.all_of(procs)
        return [results[p] for p in procs]

    @staticmethod
    def _is_big(attr: FileAttr) -> bool:
        return attr.blocks >= _BIG_BIAS

    def ensure_root(self) -> Generator[Event, None, None]:
        """Create the root directory's attribute KV on first mount.

        Concurrent first operations must all wait for the creation to land
        (a boolean guard alone lets the second caller race past an in-flight
        root put and observe ENOENT).
        """
        if self._root_ready is True:
            return
        if self._root_ready is not False:  # creation in flight: wait for it
            yield self._root_ready.wait()
            return
        gate = _RootGate(self.env)
        self._root_ready = gate
        existing = yield from self.kv.get(schema.attr_key(schema.ROOT_INO))
        if existing is None:
            attr = FileAttr(
                ino=schema.ROOT_INO,
                mode=S_IFDIR | 0o755,
                nlink=2,
                ctime=self._clock(),
                mtime=self._clock(),
            )
            yield from self.kv.put(
                schema.attr_key(schema.ROOT_INO),
                schema.pack_attr(attr),
                inline_hint=True,
            )
        self._root_ready = True
        gate.open()

    def _alloc_ino(self) -> Generator[Event, None, int]:
        """Lease-based inode-number allocation from the counter KV."""
        if self._ino_next >= self._ino_limit:
            batch = 256
            while True:
                raw = yield from self.kv.get(schema.counter_key())
                current = struct.unpack(">Q", raw)[0] if raw else 1
                new = struct.pack(">Q", current + batch)
                ok = yield from self.kv.cas(
                    schema.counter_key(), raw, new, inline_hint=True
                )
                if ok:
                    self._ino_next, self._ino_limit = current, current + batch
                    break
        ino = self._ino_next
        self._ino_next += 1
        return ino

    # -- attribute access ---------------------------------------------------------
    def _get_attr(self, ino: int) -> Generator[Event, None, FileAttr]:
        attr = self._attr_cache.get(ino)
        if attr is not None:
            return attr
        raw = yield from self.kv.get(schema.attr_key(ino))
        if raw is None and ino == schema.ROOT_INO:
            # First touch of a fresh file system: materialise the root.
            yield from self.ensure_root()
            raw = yield from self.kv.get(schema.attr_key(ino))
        if raw is None:
            raise KvfsError(Errno.ENOENT, f"inode {ino}")
        attr = schema.unpack_attr(raw)
        self._attr_cache[ino] = attr
        return attr

    def _put_attr(self, attr: FileAttr) -> Generator[Event, None, None]:
        self._attr_cache[attr.ino] = attr
        yield from self.kv.put(
            schema.attr_key(attr.ino), schema.pack_attr(attr), inline_hint=True
        )

    def _get_fobj(self, ino: int) -> Generator[Event, None, FileObject]:
        fo = self._fobj_cache.get(ino)
        if fo is not None:
            return fo
        raw = yield from self.kv.get(schema.fileobj_key(ino))
        fo = FileObject.unpack(raw) if raw else FileObject(ino)
        self._fobj_cache[ino] = fo
        return fo

    def _put_fobj(self, fo: FileObject) -> Generator[Event, None, None]:
        self._fobj_cache[fo.ino] = fo
        yield from self.kv.put(schema.fileobj_key(fo.ino), fo.pack())

    # ------------------------------------------------------------------ namespace ops
    def lookup(self, p_ino: int, name: bytes) -> Generator[Event, None, FileAttr]:
        """Resolve one path component; raises ENOENT if absent."""
        self.ops["meta"] += 1
        yield from self._charge(0.3)
        raw = yield from self.kv.get(schema.inode_key(p_ino, name))
        if raw is None:
            raise KvfsError(Errno.ENOENT, name.decode(errors="replace"))
        ino = struct.unpack(">Q", raw)[0]
        attr = yield from self._get_attr(ino)
        return attr

    def resolve(self, path: str) -> Generator[Event, None, FileAttr]:
        """Full path resolution from the root (paper: recursive inode-KV
        fetches using p_ino + name as the key)."""
        yield from self.ensure_root()
        attr = yield from self._get_attr(schema.ROOT_INO)
        for comp in [c for c in path.split("/") if c]:
            if not attr.is_dir:
                raise KvfsError(Errno.ENOTDIR, path)
            attr = yield from self.lookup(attr.ino, comp.encode())
        return attr

    def _create_node(
        self, p_ino: int, name: bytes, mode: int, nlink: int
    ) -> Generator[Event, None, FileAttr]:
        yield from self.ensure_root()
        parent = yield from self._get_attr(p_ino)
        if not parent.is_dir:
            raise KvfsError(Errno.ENOTDIR)
        if len(name) > schema.MAX_NAME:
            raise KvfsError(Errno.ENAMETOOLONG)
        ino = yield from self._alloc_ino()
        # Atomic claim of the directory slot.
        ok = yield from self.kv.cas(
            schema.inode_key(p_ino, name),
            None,
            struct.pack(">Q", ino),
            inline_hint=True,
        )
        if not ok:
            raise KvfsError(Errno.EEXIST, name.decode(errors="replace"))
        now = self._clock()
        attr = FileAttr(ino=ino, mode=mode, nlink=nlink, ctime=now, mtime=now)
        yield from self._put_attr(attr)
        return attr

    def create(
        self, p_ino: int, name: bytes, mode: int = 0o644
    ) -> Generator[Event, None, FileAttr]:
        """Create a regular file."""
        self.ops["meta"] += 1
        yield from self._charge()
        return (yield from self._create_node(p_ino, name, S_IFREG | (mode & 0o7777), 1))

    def mkdir(
        self, p_ino: int, name: bytes, mode: int = 0o755
    ) -> Generator[Event, None, FileAttr]:
        self.ops["meta"] += 1
        yield from self._charge()
        return (yield from self._create_node(p_ino, name, S_IFDIR | (mode & 0o7777), 2))

    def symlink(
        self, p_ino: int, name: bytes, target: bytes
    ) -> Generator[Event, None, FileAttr]:
        self.ops["meta"] += 1
        yield from self._charge()
        attr = yield from self._create_node(p_ino, name, S_IFLNK | 0o777, 1)
        yield from self.kv.put(schema.small_key(attr.ino), target, inline_hint=True)
        attr = dataclasses.replace(attr, size=len(target))
        yield from self._put_attr(attr)
        return attr

    def readlink(self, ino: int) -> Generator[Event, None, bytes]:
        self.ops["meta"] += 1
        yield from self._charge(0.3)
        attr = yield from self._get_attr(ino)
        if (attr.mode & 0o170000) != S_IFLNK:
            raise KvfsError(Errno.EINVAL, "not a symlink")
        raw = yield from self.kv.get(schema.small_key(ino))
        return raw or b""

    def link(self, ino: int, p_ino: int, name: bytes) -> Generator[Event, None, None]:
        """Hard link: another directory entry for an existing inode."""
        self.ops["meta"] += 1
        yield from self._charge()
        attr = yield from self._get_attr(ino)
        if attr.is_dir:
            raise KvfsError(Errno.EISDIR)
        ok = yield from self.kv.cas(
            schema.inode_key(p_ino, name),
            None,
            struct.pack(">Q", ino),
            inline_hint=True,
        )
        if not ok:
            raise KvfsError(Errno.EEXIST)
        yield from self._put_attr(dataclasses.replace(attr, nlink=attr.nlink + 1))

    def readdir(self, ino: int) -> Generator[Event, None, list[tuple[bytes, int]]]:
        """List a directory via a prefix scan of its inode KVs."""
        self.ops["meta"] += 1
        yield from self._charge(0.5)
        attr = yield from self._get_attr(ino)
        if not attr.is_dir:
            raise KvfsError(Errno.ENOTDIR)
        items = yield from self.kv.scan_prefix(schema.inode_scan_prefix(ino))
        out = []
        for key, value in items:
            _p, name = schema.parse_inode_key(key)
            out.append((name, struct.unpack(">Q", value)[0]))
        return out

    def stat(self, ino: int) -> Generator[Event, None, FileAttr]:
        self.ops["meta"] += 1
        yield from self._charge(0.2)
        return (yield from self._get_attr(ino))

    def setattr(self, attr: FileAttr) -> Generator[Event, None, None]:
        self.ops["meta"] += 1
        yield from self._charge(0.3)
        yield from self._put_attr(attr)

    def unlink(self, p_ino: int, name: bytes) -> Generator[Event, None, None]:
        """Remove a file's directory entry; drop storage at nlink 0."""
        self.ops["meta"] += 1
        yield from self._charge()
        attr = yield from self.lookup(p_ino, name)
        if attr.is_dir:
            raise KvfsError(Errno.EISDIR, "use rmdir")
        ops: list[tuple] = [("delete", schema.inode_key(p_ino, name))]
        if attr.nlink <= 1:
            ops.append(("delete", schema.attr_key(attr.ino)))
            if self._is_big(attr):
                fo = yield from self._get_fobj(attr.ino)
                ops.extend(("delete", schema.block_key(attr.ino, b)) for b in fo.blocks())
                ops.append(("delete", schema.fileobj_key(attr.ino)))
                self._fobj_cache.pop(attr.ino, None)
            else:
                ops.append(("delete", schema.small_key(attr.ino)))
            self._attr_cache.pop(attr.ino, None)
        else:
            yield from self._put_attr(dataclasses.replace(attr, nlink=attr.nlink - 1))
        yield from self.kv.batch_commit(ops)

    def rmdir(self, p_ino: int, name: bytes) -> Generator[Event, None, None]:
        self.ops["meta"] += 1
        yield from self._charge()
        attr = yield from self.lookup(p_ino, name)
        if not attr.is_dir:
            raise KvfsError(Errno.ENOTDIR)
        children = yield from self.kv.scan_prefix(
            schema.inode_scan_prefix(attr.ino), limit=1
        )
        if children:
            raise KvfsError(Errno.ENOTEMPTY)
        self._attr_cache.pop(attr.ino, None)
        yield from self.kv.batch_commit(
            [
                ("delete", schema.inode_key(p_ino, name)),
                ("delete", schema.attr_key(attr.ino)),
            ]
        )

    def rename(
        self, p_ino: int, name: bytes, new_p_ino: int, new_name: bytes
    ) -> Generator[Event, None, None]:
        """Atomically move a directory entry (cross-shard 2PC underneath).

        An existing target is replaced (POSIX semantics); replacing a
        non-empty directory fails with ENOTEMPTY.  Target removal and the
        entry move are two atomic steps, not one (documented deviation).
        """
        self.ops["meta"] += 1
        yield from self._charge()
        raw = yield from self.kv.get(schema.inode_key(p_ino, name))
        if raw is None:
            raise KvfsError(Errno.ENOENT)
        target = yield from self.kv.get(schema.inode_key(new_p_ino, new_name))
        if target is not None:
            t_ino = struct.unpack(">Q", target)[0]
            t_attr = yield from self._get_attr(t_ino)
            if t_attr.is_dir:
                children = yield from self.kv.scan_prefix(
                    schema.inode_scan_prefix(t_ino), limit=1
                )
                if children:
                    raise KvfsError(Errno.ENOTEMPTY)
                yield from self.rmdir(new_p_ino, new_name)
            else:
                yield from self.unlink(new_p_ino, new_name)
        yield from self.kv.batch_commit(
            [
                ("delete", schema.inode_key(p_ino, name)),
                ("put", schema.inode_key(new_p_ino, new_name), raw),
            ]
        )

    # ------------------------------------------------------------------ data ops
    def read(
        self, ino: int, offset: int, length: int, charge: float = 1.0
    ) -> Generator[Event, None, bytes]:
        """Read up to ``length`` bytes; short reads at EOF, holes as zeros.

        ``charge`` scales the DPU CPU cost — batched internal readers (the
        cache prefetcher) amortise per-op overheads and pass < 1.
        """
        self.ops["read"] += 1
        yield from self._charge(charge)
        attr = yield from self._get_attr(ino)
        if attr.is_dir:
            raise KvfsError(Errno.EISDIR)
        if offset >= attr.size or length <= 0:
            return b""
        length = min(length, attr.size - offset)
        if not self._is_big(attr):
            raw = yield from self.kv.get(schema.small_key(ino))
            raw = raw or b""
            return raw[offset : offset + length]
        bs = self.block_size
        first, last = offset // bs, (offset + length - 1) // bs
        fo = yield from self._get_fobj(ino)
        gens = []
        blocks = list(range(first, last + 1))
        for b in blocks:
            if fo.contains(b):
                gens.append(self.kv.get(schema.block_key(ino, b)))
        fetched = yield from self._parallel(gens)
        it = iter(fetched)
        buf = bytearray()
        for b in blocks:
            if fo.contains(b):
                raw = next(it) or b""
                buf += raw.ljust(bs, b"\0")
            else:
                buf += bytes(bs)
        start = offset - first * bs
        return bytes(buf[start : start + length])

    def write(
        self, ino: int, offset: int, data: bytes, extend: bool = True
    ) -> Generator[Event, None, int]:
        """Write ``data`` at ``offset``; returns bytes written.

        ``extend=False`` stores the blocks without growing ``attr.size`` —
        the hybrid-cache flusher uses it because it writes whole pages while
        the authoritative i_size lives in the host VFS (which sends explicit
        size catch-ups).
        """
        self.ops["write"] += 1
        yield from self._charge()
        attr = yield from self._get_attr(ino)
        if attr.is_dir:
            raise KvfsError(Errno.EISDIR)
        if not data:
            return 0
        end = offset + len(data)
        if not self._is_big(attr):
            if end <= self.small_limit:
                # Small file: rewrite the whole KV (paper: "we rewrite the
                # entire KV").
                raw = yield from self.kv.get(schema.small_key(ino))
                cur = bytearray((raw or b"").ljust(max(attr.size, end), b"\0"))
                cur[offset:end] = data
                yield from self.kv.put(
                    schema.small_key(ino), bytes(cur), inline_hint=True
                )
                if extend:
                    yield from self._update_size(attr, max(attr.size, end), big=False)
                return len(data)
            # Conversion: delete the small KV, re-write as big-file blocks.
            raw = yield from self.kv.get(schema.small_key(ino))
            old = raw or b""
            yield from self.kv.delete(schema.small_key(ino))
            yield from self._write_blocks(ino, 0, old)
            attr = yield from self._update_size(attr, attr.size, big=True)
        yield from self._write_blocks(ino, offset, data)
        if extend and end > attr.size:
            yield from self._update_size(attr, end, big=True)
        return len(data)

    def _write_blocks(
        self, ino: int, offset: int, data: bytes
    ) -> Generator[Event, None, None]:
        """In-place 8 KiB-granular block updates (read-modify-write edges)."""
        bs = self.block_size
        fo = yield from self._get_fobj(ino)
        first, last = offset // bs, (offset + len(data) - 1) // bs
        gens = []
        new_blocks = False
        for b in range(first, last + 1):
            bstart = b * bs
            lo = max(offset, bstart) - bstart
            hi = min(offset + len(data), bstart + bs) - bstart
            chunk = data[max(offset, bstart) - offset : max(offset, bstart) - offset + (hi - lo)]
            if lo == 0 and hi == bs:
                gens.append(self.kv.put(schema.block_key(ino, b), chunk))
            else:
                gens.append(self._rmw_block(ino, b, lo, chunk, fo.contains(b)))
            if fo.add(b):
                new_blocks = True
        yield from self._parallel(gens)
        if new_blocks:
            yield from self._put_fobj(fo)

    def _rmw_block(
        self, ino: int, block: int, off_in_block: int, chunk: bytes, exists: bool
    ) -> Generator[Event, None, None]:
        old = b""
        if exists:
            raw = yield from self.kv.get(schema.block_key(ino, block))
            old = raw or b""
        buf = bytearray(old.ljust(self.block_size, b"\0"))
        buf[off_in_block : off_in_block + len(chunk)] = chunk
        # Trim trailing zeros only to the block boundary; blocks store full 8K.
        yield from self.kv.put(schema.block_key(ino, block), bytes(buf))

    def _update_size(
        self, attr: FileAttr, size: int, big: bool
    ) -> Generator[Event, None, FileAttr]:
        fo = self._fobj_cache.get(attr.ino)
        blocks = (fo.block_count() + _BIG_BIAS) if (big and fo) else (_BIG_BIAS if big else 0)
        attr = dataclasses.replace(
            attr, size=size, mtime=self._clock(), blocks=blocks
        )
        yield from self._put_attr(attr)
        return attr

    def truncate(self, ino: int, size: int) -> Generator[Event, None, None]:
        self.ops["meta"] += 1
        yield from self._charge()
        attr = yield from self._get_attr(ino)
        if attr.is_dir:
            raise KvfsError(Errno.EISDIR)
        if not self._is_big(attr):
            raw = yield from self.kv.get(schema.small_key(ino))
            cur = (raw or b"")[:size].ljust(size, b"\0")
            if size <= self.small_limit:
                yield from self.kv.put(schema.small_key(ino), cur, inline_hint=True)
                yield from self._update_size(attr, size, big=False)
                return
            yield from self.kv.delete(schema.small_key(ino))
            yield from self._write_blocks(ino, 0, cur)
            yield from self._update_size(attr, size, big=True)
            return
        bs = self.block_size
        fo = yield from self._get_fobj(ino)
        first_dead = (size + bs - 1) // bs
        dead = fo.remove_from(first_dead)
        if dead:
            yield from self.kv.batch_commit(
                [("delete", schema.block_key(ino, b)) for b in dead]
            )
            yield from self._put_fobj(fo)
        # Zero the tail of the new last block if shrinking into it.
        if size % bs and fo.contains(size // bs) and size < attr.size:
            raw = yield from self.kv.get(schema.block_key(ino, size // bs))
            if raw:
                kept = raw[: size % bs].ljust(bs, b"\0")
                yield from self.kv.put(schema.block_key(ino, size // bs), kept)
        yield from self._update_size(attr, size, big=True)

    def fsync(self, ino: int) -> Generator[Event, None, None]:
        """All metadata is write-through; fsync is a backend round trip."""
        self.ops["meta"] += 1
        yield from self._charge(0.2)
        yield from self.kv.get(schema.attr_key(ino))
