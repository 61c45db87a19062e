"""Bit-level codec for the nvme-fs submission/completion queue entries.

Implements the SQE modification of paper §3.2 exactly:

* ``Dword0`` byte 0 is the **Opcode** ``0xA3``: low two bits ``11b`` select
  bidirectional transfer, bits 2-6 are the function code ``01000b``, and the
  high bit ``1b`` marks a vendor-customized command.
* ``Dword0`` bit 10 stores the **request type** consumed by IO_Dispatch:
  ``0`` = standalone file request (KVFS), ``1`` = distributed file request
  (DFS client).
* ``Dword0`` bits 14/15 (**PSDT**) select PRP (``0``) or SGL (``1``) for the
  write-direction and read-direction transfers respectively; PRP is the
  default.
* ``Dword0`` bits 16-31 carry the command identifier (CID), as in stock NVMe.
* ``Dword2-5`` hold the **PRP Write** entries (two 64-bit pointers),
  ``Dword6-9`` the **PRP Read** entries.
* ``Dword10`` = ``Write_len``, ``Dword11`` = ``Read_len`` (payload bytes);
  ``Dword13`` packs ``RH_len`` (low 16 bits) and ``WH_len`` (high 16 bits),
  the response/request header sizes.

A completion queue entry is the standard 16-byte NVMe CQE: DW0 carries the
command-specific result, DW2 the SQ head pointer, DW3 the CID + phase +
status.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

__all__ = [
    "NVMEFS_OPCODE",
    "SQE_SIZE",
    "CQE_SIZE",
    "RESULT_HEADER",
    "ReqType",
    "Sqe",
    "Cqe",
]

#: vendor opcode: 1b (custom) | 01000b (function) | 11b (bidirectional)
NVMEFS_OPCODE = 0xA3
SQE_SIZE = 64
CQE_SIZE = 16
#: CQE result bit: the FileResponse header is in the PRP Read region;
#: clear, the result is the completed byte count
RESULT_HEADER = 0x80000000

_SQE = struct.Struct("<IIQQQQIIIIQ")
assert _SQE.size == SQE_SIZE
_CQE = struct.Struct("<IIHHHH")
assert _CQE.size == CQE_SIZE


class ReqType:
    """Dword0 bit 10: which DPU stack handles the request."""

    STANDALONE = 0  # dispatched to KVFS
    DISTRIBUTED = 1  # dispatched to the DFS client


@dataclass(frozen=True)
class Sqe:
    """A decoded nvme-fs submission queue entry."""

    cid: int
    req_type: int = ReqType.STANDALONE
    prp_write1: int = 0
    prp_write2: int = 0
    prp_read1: int = 0
    prp_read2: int = 0
    write_len: int = 0
    read_len: int = 0
    wh_len: int = 0  # write-header bytes (the FileRequest)
    rh_len: int = 0  # read-header bytes reserved for the FileResponse
    sgl_write: bool = False
    sgl_read: bool = False
    opcode: int = NVMEFS_OPCODE

    def pack(self) -> bytes:
        if not 0 <= self.cid <= 0xFFFF:
            raise ValueError("cid must fit in 16 bits")
        if self.wh_len > 0xFFFF or self.rh_len > 0xFFFF:
            raise ValueError("header lengths must fit in 16 bits")
        dw0 = self.opcode & 0xFF
        dw0 |= (self.req_type & 1) << 10
        dw0 |= (1 if self.sgl_write else 0) << 14
        dw0 |= (1 if self.sgl_read else 0) << 15
        dw0 |= (self.cid & 0xFFFF) << 16
        dw13 = (self.rh_len & 0xFFFF) | ((self.wh_len & 0xFFFF) << 16)
        # layout: dw0, dw1(reserved), prpW1(dw2-3), prpW2(dw4-5),
        #         prpR1(dw6-7), prpR2(dw8-9), dw10, dw11, dw12(reserved),
        #         dw13, dw14-15(reserved, packed as one u64)
        return _SQE.pack(
            dw0,
            0,
            self.prp_write1,
            self.prp_write2,
            self.prp_read1,
            self.prp_read2,
            self.write_len,
            self.read_len,
            0,
            dw13,
            0,
        )

    @classmethod
    def unpack(cls, raw: bytes) -> "Sqe":
        if len(raw) != SQE_SIZE:
            raise ValueError(f"SQE must be {SQE_SIZE} bytes, got {len(raw)}")
        dw0, _dw1, pw1, pw2, pr1, pr2, wlen, rlen, _dw12, dw13, _rsv = _SQE.unpack(raw)
        opcode = dw0 & 0xFF
        return cls(
            cid=(dw0 >> 16) & 0xFFFF,
            req_type=(dw0 >> 10) & 1,
            prp_write1=pw1,
            prp_write2=pw2,
            prp_read1=pr1,
            prp_read2=pr2,
            write_len=wlen,
            read_len=rlen,
            rh_len=dw13 & 0xFFFF,
            wh_len=(dw13 >> 16) & 0xFFFF,
            sgl_write=bool((dw0 >> 14) & 1),
            sgl_read=bool((dw0 >> 15) & 1),
            opcode=opcode,
        )

    # -- opcode field views (paper §3.2 bit dissection) ------------------------
    @property
    def is_bidirectional(self) -> bool:
        return (self.opcode & 0b11) == 0b11

    @property
    def function_code(self) -> int:
        return (self.opcode >> 2) & 0b11111

    @property
    def is_vendor_custom(self) -> bool:
        return bool(self.opcode >> 7)


@dataclass(frozen=True)
class Cqe:
    """A decoded completion queue entry."""

    cid: int
    status: int = 0
    result: int = 0
    sq_head: int = 0
    sq_id: int = 0
    phase: int = 1

    def pack(self) -> bytes:
        dw3_hi = ((self.status & 0x7FFF) << 1) | (self.phase & 1)
        return _CQE.pack(self.result, 0, self.sq_head, self.sq_id, self.cid, dw3_hi)

    @classmethod
    def unpack(cls, raw: bytes) -> "Cqe":
        if len(raw) != CQE_SIZE:
            raise ValueError(f"CQE must be {CQE_SIZE} bytes, got {len(raw)}")
        result, _rsv, sq_head, sq_id, cid, dw3_hi = _CQE.unpack(raw)
        return cls(
            cid=cid,
            status=(dw3_hi >> 1) & 0x7FFF,
            result=result,
            sq_head=sq_head,
            sq_id=sq_id,
            phase=dw3_hi & 1,
        )
