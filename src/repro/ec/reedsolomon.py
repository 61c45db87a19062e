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


class ReedSolomon:
    """Encoder/decoder for a fixed (k data, m parity) geometry."""

    def __init__(self, k: int, m: int):
        if k < 1 or m < 0 or k + m > 256:
            raise ECError(f"invalid RS geometry k={k}, m={m}")
        self.k = k
        self.m = m
        self.matrix = self._build_matrix(k, m)
        self._parity_rows = self.matrix[k:, :]

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
        if size == 0:
            return [b"" for _ in range(self.m)]
        arrs = [np.frombuffer(s, dtype=np.uint8) for s in data_shards]
        parities = []
        for r in range(self.m):
            acc = np.zeros(size, dtype=np.uint8)
            row = self._parity_rows[r]
            for c in range(self.k):
                gf256.addmul(acc, int(row[c]), arrs[c])
            parities.append(acc.tobytes())
        return parities

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
        sub = self.matrix[rows, :]
        dec = gf256.matinv(sub)
        srcs = [np.frombuffer(shards[i], dtype=np.uint8) for i in rows]  # type: ignore[arg-type]
        out: list[bytes] = []
        for r in range(self.k):
            acc = np.zeros(size, dtype=np.uint8)
            for c in range(self.k):
                gf256.addmul(acc, int(dec[r, c]), srcs[c])
            out.append(acc.tobytes())
        return out

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
        delta = np.frombuffer(old_data, dtype=np.uint8) ^ np.frombuffer(
            new_data, dtype=np.uint8
        )
        out = []
        for j in range(self.m):
            acc = np.frombuffer(old_parities[j], dtype=np.uint8).copy()
            gf256.addmul(acc, int(self._parity_rows[j, data_index]), delta)
            out.append(acc.tobytes())
        return out

    def reconstruct_shard(self, shards: Sequence[bytes | None], index: int) -> bytes:
        """Rebuild a single missing shard (data or parity)."""
        if not 0 <= index < self.k + self.m:
            raise ECError(f"shard index {index} out of range")
        data = self.decode(shards)
        if index < self.k:
            return data[index]
        arrs = [np.frombuffer(s, dtype=np.uint8) for s in data]
        acc = np.zeros(len(data[0]), dtype=np.uint8)
        row = self.matrix[index]
        for c in range(self.k):
            gf256.addmul(acc, int(row[c]), arrs[c])
        return acc.tobytes()
