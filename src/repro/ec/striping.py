"""Stripe layout management for EC-protected files.

Maps a file's byte space onto fixed-size stripes, each of which is erasure
coded into k+m shard units placed round-robin across data servers.  This is
the layout logic both the optimized host fs-client and the DPU-offloaded
client use when doing client-side EC + direct I/O (paper §2.1, §4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .reedsolomon import ECError, ReedSolomon

__all__ = ["StripeLayout", "StripePlacement", "ShardLoc"]


@dataclass(frozen=True)
class ShardLoc:
    """Where one shard of one stripe lives."""

    stripe_index: int
    shard_index: int  # 0..k+m-1 (>= k are parity)
    server: int  # data server id
    key: str  # object key on that server
    is_parity: bool = False


@dataclass(frozen=True)
class StripePlacement:
    """Placement of a full stripe: k+m shard locations."""

    stripe_index: int
    shards: tuple[ShardLoc, ...]


class StripeLayout:
    """Deterministic stripe-to-server placement with rotation.

    Stripe ``s`` places shard ``i`` on server ``(s + i) % n_servers`` —
    rotating the parity shards so no server becomes a parity hotspot.
    """

    def __init__(self, rs: ReedSolomon, stripe_unit: int, n_servers: int):
        if n_servers < rs.k + rs.m:
            raise ECError(
                f"need at least {rs.k + rs.m} servers for RS({rs.k},{rs.m}), got {n_servers}"
            )
        if stripe_unit <= 0:
            raise ValueError("stripe_unit must be positive")
        self.rs = rs
        self.stripe_unit = stripe_unit
        self.stripe_size = stripe_unit * rs.k  # payload bytes per stripe
        self.n_servers = n_servers
        # A placement is a pure function of its arguments and the read path
        # asks for one per unit.  Bounded, so the memo does not grow with
        # the number of files a long run touches.
        self._placement = lru_cache(maxsize=1024)(self._build_placement)

    # -- geometry -------------------------------------------------------------
    def stripe_of(self, offset: int) -> int:
        return offset // self.stripe_size

    def stripe_span(self, offset: int, length: int) -> range:
        if length <= 0:
            return range(0, 0)
        first = self.stripe_of(offset)
        last = self.stripe_of(offset + length - 1)
        return range(first, last + 1)

    def placement(self, file_id: int, stripe_index: int) -> StripePlacement:
        return self._placement(file_id, stripe_index)

    def _build_placement(self, file_id: int, stripe_index: int) -> StripePlacement:
        shards = []
        for i in range(self.rs.k + self.rs.m):
            server = (stripe_index + i + file_id) % self.n_servers
            key = f"f{file_id}.s{stripe_index}.u{i}"
            shards.append(ShardLoc(stripe_index, i, server, key, is_parity=i >= self.rs.k))
        return StripePlacement(stripe_index, tuple(shards))

    # -- data transforms ---------------------------------------------------------
    def encode_stripe(self, payload: bytes) -> list[bytes]:
        """EC-encode one stripe's payload into k+m stripe units."""
        if len(payload) > self.stripe_size:
            raise ECError("payload exceeds stripe size")
        padded = payload.ljust(self.stripe_size, b"\0")
        shards = [
            padded[i * self.stripe_unit : (i + 1) * self.stripe_unit]
            for i in range(self.rs.k)
        ]
        return shards + self.rs.encode(shards)

    def decode_stripe(self, units: Sequence[bytes | None]) -> bytes:
        """Recover a stripe's full payload from any k of its units."""
        data = self.rs.decode(units)
        return b"".join(data)
