"""Systematic Reed-Solomon erasure coding over GF(2^8).

This is the client-side EC engine the paper moves from the host fs-client
onto the DPU (§2.1 "Client-side EC calculation", §4.3).  The code is
systematic: ``k`` data shards pass through unchanged and ``m`` parity shards
are appended, so the common read path touches no field math.

Construction: take the (k+m) x k Vandermonde matrix and row-reduce it so its
top k x k block is the identity; any k rows of the result remain linearly
independent, which is the MDS property decoding relies on.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import gf256

__all__ = ["ReedSolomon", "ECError"]


class ECError(ValueError):
    """Raised on unrecoverable shard loss or geometry misuse."""


def _combine(coefs: Sequence[int], bufs: Sequence[bytes], size: int) -> bytes:
    """``sum(coef_i * buf_i)`` over GF(2^8): the one inner loop of encoding,
    decoding and parity update.  Each buffer holds ``size`` bytes.

    A coefficient times a buffer is one ``bytes.translate`` through that
    coefficient's row of the multiplication table; the sum is XOR, taken
    eight bytes at a time over buffers padded to a whole number of words.
    """
    padded = -(-size // 8) * 8
    acc = np.zeros(padded // 8, dtype=np.uint64)
    for coef, buf in zip(coefs, bufs):
        if coef == 0:
            continue
        if coef != 1:
            buf = buf.translate(gf256.MUL_MAPS[coef])
        if padded != size:
            buf = buf.ljust(padded, b"\0")
        acc ^= np.frombuffer(buf, dtype=np.uint64)
    out = acc.tobytes()
    return out if padded == size else out[:size]


class ReedSolomon:
    """Encoder/decoder for a fixed (k data, m parity) geometry."""

    def __init__(self, k: int, m: int):
        if k < 1 or m < 0 or k + m > 256:
            raise ECError(f"invalid RS geometry k={k}, m={m}")
        self.k = k
        self.m = m
        self.matrix = self._build_matrix(k, m)
        #: parity coefficients as Python ints, one row per parity shard
        self._parity_rows: list[list[int]] = self.matrix[k:, :].tolist()

    @staticmethod
    def _build_matrix(k: int, m: int) -> np.ndarray:
        v = gf256.vandermonde(k + m, k)
        top_inv = gf256.matinv(v[:k, :])
        return gf256.matmul(v, top_inv)  # top block becomes identity

    # -- encoding -------------------------------------------------------------
    def encode(self, data_shards: Sequence[bytes]) -> list[bytes]:
        """Compute ``m`` parity shards for ``k`` equal-length data shards."""
        if len(data_shards) != self.k:
            raise ECError(f"need exactly {self.k} data shards, got {len(data_shards)}")
        size = len(data_shards[0])
        if any(len(s) != size for s in data_shards):
            raise ECError("data shards must be equal length")
        return [_combine(row, data_shards, size) for row in self._parity_rows]

    def encode_stripe(self, data: bytes) -> list[bytes]:
        """Split ``data`` into k shards (zero padded) and append parity.

        Returns ``k + m`` shards, each ``ceil(len/k)`` bytes.
        """
        shard_size = max(1, -(-len(data) // self.k))
        shards = []
        for i in range(self.k):
            chunk = data[i * shard_size : (i + 1) * shard_size]
            shards.append(chunk.ljust(shard_size, b"\0"))
        return shards + self.encode(shards)

    # -- decoding --------------------------------------------------------------
    def decode(self, shards: Sequence[bytes | None]) -> list[bytes]:
        """Reconstruct all k data shards from any k surviving shards.

        ``shards`` has k+m entries; missing ones are ``None``.  Returns the
        k data shards.
        """
        if len(shards) != self.k + self.m:
            raise ECError(f"expected {self.k + self.m} shard slots")
        present = [i for i, s in enumerate(shards) if s is not None]
        if len(present) < self.k:
            raise ECError(
                f"unrecoverable: only {len(present)} of required {self.k} shards present"
            )
        # Fast path: all data shards intact.
        if all(shards[i] is not None for i in range(self.k)):
            return [bytes(shards[i]) for i in range(self.k)]  # type: ignore[arg-type]
        rows = present[: self.k]
        size = len(shards[rows[0]])  # type: ignore[arg-type]
        if any(len(shards[i]) != size for i in rows):  # type: ignore[arg-type]
            raise ECError("surviving shards must be equal length")
        dec = gf256.matinv(self.matrix[rows, :]).tolist()
        srcs = [shards[i] for i in rows]
        return [_combine(dec[r], srcs, size) for r in range(self.k)]  # type: ignore[arg-type]

    def decode_stripe(self, shards: Sequence[bytes | None], length: int) -> bytes:
        """Reconstruct the original ``length``-byte payload of a stripe."""
        data = b"".join(self.decode(shards))
        return data[:length]

    def update_parity(
        self, data_index: int, old_data: bytes, new_data: bytes, old_parities: Sequence[bytes]
    ) -> list[bytes]:
        """Partial-stripe write: recompute parities from one shard's delta.

        ``parity_j' = parity_j + M[k+j, i] * (new - old)`` — the
        read-modify-write path both the optimized fs-client and DPC use for
        random writes inside a stripe (far cheaper than re-encoding k shards).
        """
        if not 0 <= data_index < self.k:
            raise ECError(f"data index {data_index} out of range")
        if len(old_parities) != self.m:
            raise ECError(f"need {self.m} old parities")
        if len(old_data) != len(new_data):
            raise ECError("old/new shard length mismatch")
        size = len(new_data)
        delta = _combine((1, 1), (old_data, new_data), size)
        return [
            _combine((1, row[data_index]), (parity, delta), size)
            for row, parity in zip(self._parity_rows, old_parities)
        ]

    def reconstruct_shard(self, shards: Sequence[bytes | None], index: int) -> bytes:
        """Rebuild a single missing shard (data or parity)."""
        if not 0 <= index < self.k + self.m:
            raise ECError(f"shard index {index} out of range")
        data = self.decode(shards)
        if index < self.k:
            return data[index]
        return _combine(self.matrix[index].tolist(), data, len(data[0]))
