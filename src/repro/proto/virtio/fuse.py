"""FUSE message framing, as carried by virtio-fs in the DPFS baseline.

Byte-exact ``fuse_in_header`` / ``fuse_out_header`` layouts from the Linux
FUSE ABI, plus the read/write op bodies.  DPFS (paper §2.3-M2) transports
these messages over virtio queues; their size and the "overburdened" queue
structure are part of why it loses to nvme-fs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

__all__ = [
    "FuseOp",
    "FuseInHeader",
    "FuseOutHeader",
    "FuseReadIn",
    "FuseWriteIn",
    "FUSE_MAX_TRANSFER",
]


class FuseOp:
    """FUSE opcodes (Linux ABI numbering, subset used here)."""

    LOOKUP = 1
    GETATTR = 3
    SETATTR = 4
    MKDIR = 9
    UNLINK = 10
    RMDIR = 11
    RENAME = 12
    OPEN = 14
    READ = 15
    WRITE = 16
    RELEASE = 18
    FSYNC = 20
    FLUSH = 25
    CREATE = 35
    READDIR = 28
    #: file-system-specific commands with no FUSE opcode of their own
    IOCTL = 39


#: FUSE splits large I/O into max_write-sized requests; virtio-fs deployments
#: commonly negotiate 256 KiB.  nvme-fs has no such cap — one of the reasons
#: it saturates PCIe where virtio-fs does not (paper §4.1).
FUSE_MAX_TRANSFER = 256 * 1024

_IN = struct.Struct("<IIQQIIII")  # len, opcode, unique, nodeid, uid, gid, pid, pad
_OUT = struct.Struct("<IiQ")  # len, error, unique
_READ_IN = struct.Struct("<QQIIII")  # fh, offset, size, read_flags, lock_owner, flags
_WRITE_IN = struct.Struct("<QQIIIIII")  # fh, offset, size, write_flags, lock, flags, pad


@dataclass(frozen=True)
class FuseInHeader:
    """40-byte request header prepended to every FUSE message."""

    length: int
    opcode: int
    unique: int
    nodeid: int
    uid: int = 0
    gid: int = 0
    pid: int = 0

    SIZE = _IN.size

    def pack(self) -> bytes:
        return _IN.pack(
            self.length, self.opcode, self.unique, self.nodeid, self.uid, self.gid, self.pid, 0
        )

    @classmethod
    def unpack(cls, raw: bytes) -> "FuseInHeader":
        length, opcode, unique, nodeid, uid, gid, pid, _ = _IN.unpack(raw[: _IN.size])
        return cls(length, opcode, unique, nodeid, uid, gid, pid)


@dataclass(frozen=True)
class FuseOutHeader:
    """16-byte response header."""

    length: int
    error: int
    unique: int

    SIZE = _OUT.size

    def pack(self) -> bytes:
        return _OUT.pack(self.length, self.error, self.unique)

    @classmethod
    def unpack(cls, raw: bytes) -> "FuseOutHeader":
        return cls(*_OUT.unpack(raw[: _OUT.size]))


@dataclass(frozen=True)
class FuseReadIn:
    """Body of a FUSE_READ request."""

    fh: int
    offset: int
    size: int

    SIZE = _READ_IN.size

    def pack(self) -> bytes:
        return _READ_IN.pack(self.fh, self.offset, self.size, 0, 0, 0)

    @classmethod
    def unpack(cls, raw: bytes) -> "FuseReadIn":
        fh, offset, size, _, _, _ = _READ_IN.unpack(raw[: _READ_IN.size])
        return cls(fh, offset, size)


@dataclass(frozen=True)
class FuseWriteIn:
    """Body of a FUSE_WRITE request (payload follows)."""

    fh: int
    offset: int
    size: int

    SIZE = _WRITE_IN.size

    def pack(self) -> bytes:
        return _WRITE_IN.pack(self.fh, self.offset, self.size, 0, 0, 0, 0, 0)

    @classmethod
    def unpack(cls, raw: bytes) -> "FuseWriteIn":
        fh, offset, size, _, _, _, _, _ = _WRITE_IN.unpack(raw[: _WRITE_IN.size])
        return cls(fh, offset, size)
