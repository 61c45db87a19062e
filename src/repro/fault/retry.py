"""Per-RPC timeouts, exponential backoff with deterministic jitter.

The policy is data; :class:`~repro.fault.requests.RequestEngine` runs the
deadline race and the retries.

Backoff jitter is drawn from a caller-supplied :class:`random.Random`
(always an :meth:`Environment.substream`), keeping retry schedules
bit-reproducible from the master seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "RpcTimeout",
    "RetryBudgetExceeded",
    "RetryPolicy",
    "retry_policy_from",
]


class RpcTimeout(Exception):
    """A single RPC attempt exceeded its deadline."""


class RetryBudgetExceeded(Exception):
    """Every attempt allowed by the :class:`RetryPolicy` timed out."""


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout + bounded exponential backoff for one class of RPCs."""

    #: per-attempt deadline (seconds of simulated time)
    timeout: float
    #: total attempts (first try + retries)
    max_attempts: int = 5
    #: backoff before the second attempt
    backoff_base: float = 120e-6
    #: multiplier applied per further attempt
    backoff_mult: float = 2.0
    #: +/- fractional jitter applied to each backoff (0 disables)
    jitter: float = 0.25

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Delay before retry number ``attempt`` (1 = first retry)."""
        raw = self.backoff_base * (self.backoff_mult ** (attempt - 1))
        if self.jitter > 0.0:
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(raw, 0.0)


def retry_policy_from(params) -> Optional[RetryPolicy]:
    """Build the RPC retry policy from :class:`SystemParams`.

    Returns ``None`` when ``rpc_timeout`` is 0 — the fail-free fast path:
    no deadline processes are created and RPC behaviour is byte-identical
    to the pre-fault-plane simulator.
    """
    if params.rpc_timeout <= 0.0:
        return None
    return RetryPolicy(
        timeout=params.rpc_timeout,
        max_attempts=params.rpc_retry_max,
        backoff_base=params.rpc_backoff_base,
        backoff_mult=params.rpc_backoff_mult,
        jitter=params.rpc_backoff_jitter,
    )

