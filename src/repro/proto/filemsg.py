"""Native file-semantic messages carried by nvme-fs.

nvme-fs lets the VFS talk to the DPU "through native file semantics"
(paper §3.2): each command carries a *write header* describing the file
operation (and, for writes, the payload data), and receives a *read header*
describing the outcome (and, for reads, the payload).  These headers are the
RH_len/WH_len regions the modified SQE points at.

The wire encoding is fixed-layout ``struct`` packing — compact, versioned,
and byte-exact, so header sizes measured by the DMA counters are real.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum

__all__ = ["FileOp", "FileRequest", "FileResponse", "FileAttr", "Errno"]


class FileOp(IntEnum):
    """File operations understood by the DPU-side dispatch."""

    LOOKUP = 1
    CREATE = 2
    OPEN = 3
    CLOSE = 4
    READ = 5
    WRITE = 6
    STAT = 7
    SETATTR = 8
    MKDIR = 9
    RMDIR = 10
    READDIR = 11
    UNLINK = 12
    RENAME = 13
    TRUNCATE = 14
    FSYNC = 15
    FLUSH_PAGE = 16  # hybrid-cache writeback completion (control plane)
    DELEG_ACQUIRE = 17  # file delegation / lock caching (DFS offload)
    DELEG_RELEASE = 18


class Errno(IntEnum):
    """Status codes in responses (a POSIX-flavoured subset)."""

    OK = 0
    ENOENT = 2
    EIO = 5
    #: transient device error: the command did not execute; retry it
    EAGAIN = 11
    EEXIST = 17
    ENOTDIR = 20
    EISDIR = 21
    EINVAL = 22
    EFBIG = 27
    ENOSPC = 28
    ENAMETOOLONG = 36
    ENOTEMPTY = 39


#: little-endian: op, flags, ino, aux_ino, offset, length, mode, name_len, extra_len
_REQ_FIXED = struct.Struct("<HHQQQQIHH")
#: little-endian: status, aux, size, attr_len, data_len
_RESP_FIXED = struct.Struct("<iIQHI")
#: attribute block: ino, size, mode, nlink, uid, gid, atime, mtime, ctime, blocks
_ATTR = struct.Struct("<QQIIIIQQQQ")

#: KVFS limits file/directory names to 1024 bytes (paper §3.4)
MAX_NAME = 1024


@dataclass(frozen=True)
class FileAttr:
    """File attributes; packs to the fixed 64-byte attribute block."""

    ino: int
    size: int = 0
    mode: int = 0o100644
    nlink: int = 1
    uid: int = 0
    gid: int = 0
    atime: int = 0
    mtime: int = 0
    ctime: int = 0
    blocks: int = 0

    def pack(self) -> bytes:
        return _ATTR.pack(
            self.ino,
            self.size,
            self.mode,
            self.nlink,
            self.uid,
            self.gid,
            self.atime,
            self.mtime,
            self.ctime,
            self.blocks,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "FileAttr":
        vals = _ATTR.unpack(data[: _ATTR.size])
        return cls(*vals)

    @property
    def is_dir(self) -> bool:
        return (self.mode & 0o170000) == 0o040000


@dataclass(frozen=True)
class FileRequest:
    """One file operation as sent host -> DPU.

    ``name`` carries a path component (LOOKUP/CREATE/...), ``extra`` carries
    a second name (RENAME target) or opaque op-specific bytes.  Payload data
    for WRITE travels separately in the PRP-addressed data buffer.
    """

    op: FileOp
    ino: int = 0
    aux_ino: int = 0
    offset: int = 0
    length: int = 0
    mode: int = 0
    flags: int = 0
    name: bytes = b""
    extra: bytes = b""

    def pack(self) -> bytes:
        if len(self.name) > MAX_NAME:
            raise ValueError(f"name exceeds {MAX_NAME} bytes")
        return (
            _REQ_FIXED.pack(
                int(self.op),
                self.flags,
                self.ino,
                self.aux_ino,
                self.offset,
                self.length,
                self.mode,
                len(self.name),
                len(self.extra),
            )
            + self.name
            + self.extra
        )

    @classmethod
    def unpack(cls, data: bytes) -> "FileRequest":
        op, flags, ino, aux_ino, offset, length, mode, nlen, xlen = _REQ_FIXED.unpack(
            data[: _REQ_FIXED.size]
        )
        base = _REQ_FIXED.size
        name = bytes(data[base : base + nlen])
        extra = bytes(data[base + nlen : base + nlen + xlen])
        return cls(FileOp(op), ino, aux_ino, offset, length, mode, flags, name, extra)

    def wire_size(self) -> int:
        return _REQ_FIXED.size + len(self.name) + len(self.extra)


@dataclass(frozen=True)
class FileResponse:
    """Outcome of a file operation as sent DPU -> host.

    ``attr`` is present for STAT/LOOKUP/CREATE.  ``size`` is the completed
    byte count: bytes written for WRITE, payload bytes for READ and READDIR.
    ``aux`` is one op-specific word: the next READDIR cookie (0 = listing
    complete) or the DELEG_ACQUIRE grant bit.  READ data and READDIR
    dirents travel in the PRP Read data buffer, not here.  ``data`` is
    op-specific header bytes; no operation fills it today.
    """

    status: Errno = Errno.OK
    aux: int = 0
    size: int = 0
    attr: FileAttr | None = None
    data: bytes = b""

    def pack(self) -> bytes:
        attr_bytes = self.attr.pack() if self.attr is not None else b""
        return (
            _RESP_FIXED.pack(
                int(self.status), self.aux, self.size, len(attr_bytes), len(self.data)
            )
            + attr_bytes
            + self.data
        )

    @classmethod
    def unpack(cls, data: bytes) -> "FileResponse":
        status, aux, size, alen, dlen = _RESP_FIXED.unpack(data[: _RESP_FIXED.size])
        base = _RESP_FIXED.size
        attr = FileAttr.unpack(data[base : base + alen]) if alen else None
        payload = bytes(data[base + alen : base + alen + dlen])
        return cls(Errno(status), aux, size, attr, payload)

    def wire_size(self) -> int:
        return _RESP_FIXED.size + (_ATTR.size if self.attr is not None else 0) + len(self.data)

    @property
    def ok(self) -> bool:
        return self.status == Errno.OK


def pack_dirents(entries: list[tuple[bytes, int, bool]]) -> bytes:
    """Encode a READDIR listing: (name, ino, is_dir) triples."""
    out = bytearray()
    for name, ino, is_dir in entries:
        out += struct.pack("<QHB", ino, len(name), 1 if is_dir else 0) + name
    return bytes(out)


def unpack_dirents(data: bytes) -> list[tuple[bytes, int, bool]]:
    """Decode a READDIR listing."""
    out = []
    pos = 0
    while pos < len(data):
        ino, nlen, is_dir = struct.unpack_from("<QHB", data, pos)
        pos += 11
        out.append((bytes(data[pos : pos + nlen]), ino, bool(is_dir)))
        pos += nlen
    return out
