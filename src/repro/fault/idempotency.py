"""Server-side dedupe of retried / duplicated mutations.

A client stamps every mutating RPC with a token that stays *constant
across retries* of the same logical operation.  The server consults its
:class:`IdempotencyFilter` before executing: a token it has already
answered replays the stored response instead of re-applying the mutation,
so message duplication and timeout-driven retries are exactly-once from
the application's point of view.

The filter is a capped FIFO map — old tokens age out once the window is
full, which is safe because a client's retry budget bounds how long a
token can remain live.  An optional TTL additionally expires memoised
responses by simulated age: long sweeps stop paying memory for tokens
whose retry window has long closed (a token older than its client's total
retry budget can never be replayed again).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional, Tuple

__all__ = ["IdempotencyFilter", "PENDING"]

_MISS = object()

#: sentinel response: the token's first execution is still in flight.  A
#: server reserves a token with ``put(token, PENDING)`` *before* executing,
#: so a same-instant fabric duplicate parks until the response is memoised
#: instead of racing the first execution.
PENDING = object()


class IdempotencyFilter:
    """Capped token -> response memo for exactly-once mutation semantics."""

    def __init__(
        self,
        capacity: int = 8192,
        ttl: float = 0.0,
        now_fn: Optional[Callable[[], float]] = None,
    ):
        """``ttl`` seconds (0 disables age-based expiry, the historical
        size-bounded behaviour); ``now_fn`` supplies the clock — the KV
        server passes the simulated clock so expiry is deterministic."""
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if ttl > 0.0 and now_fn is None:
            raise ValueError("ttl requires a now_fn clock")
        self.capacity = capacity
        self.ttl = ttl
        self._now = now_fn or (lambda: 0.0)
        #: token -> (stored_at, response); insertion-ordered, so the front
        #: is always both the oldest entry and the next TTL casualty
        self._seen: OrderedDict[Hashable, Tuple[float, Any]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.expirations = 0

    def _expire(self) -> None:
        if self.ttl <= 0.0 or not self._seen:
            return
        horizon = self._now() - self.ttl
        while self._seen:
            first_token = next(iter(self._seen))
            if self._seen[first_token][0] > horizon:
                break
            del self._seen[first_token]
            self.expirations += 1

    def check(self, token: Optional[Hashable]) -> Tuple[bool, Any]:
        """Return ``(seen, stored_response)`` for ``token``.

        ``token=None`` (an unstamped request) always misses and is never
        remembered.
        """
        if token is None:
            return False, None
        self._expire()
        entry = self._seen.get(token, _MISS)
        if entry is _MISS:
            self.misses += 1
            return False, None
        self.hits += 1
        return True, entry[1]

    def put(self, token: Optional[Hashable], response: Any) -> None:
        """Remember the response for ``token`` (no-op for ``None``)."""
        if token is None:
            return
        # Preserve insertion order on overwrite (PENDING -> final response)
        # so the FIFO front stays the oldest *first-stored* token.
        old = self._seen.get(token)
        stored_at = old[0] if old is not None else self._now()
        self._seen[token] = (stored_at, response)
        if len(self._seen) > self.capacity:
            self._seen.popitem(last=False)

    def release(self, token: Optional[Hashable]) -> None:
        """Forget ``token``: its ``PENDING`` execution produced no result."""
        self._seen.pop(token, None)

    def __len__(self) -> int:
        return len(self._seen)
