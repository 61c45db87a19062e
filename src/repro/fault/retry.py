"""Per-RPC timeouts, exponential backoff with deterministic jitter.

An RPC attempt is raced against a simulated-clock deadline via ``AnyOf``:
the race keeps a callback registered on the attempt process, so an attempt
that *loses* the race (or fails after the caller gave up on it) never
trips the kernel's "failed process with no waiters" abort — its outcome is
observed, then discarded.  An abandoned attempt stays parked on its reply
event, which nothing else references once the caller has moved on.

Backoff jitter is drawn from a caller-supplied :class:`random.Random`
(always an :meth:`Environment.substream`), keeping retry schedules
bit-reproducible from the master seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..sim.core import Environment, Event

__all__ = [
    "RpcTimeout",
    "RetryBudgetExceeded",
    "RetryPolicy",
    "call_with_timeout",
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


def call_with_timeout(
    env: Environment, gen: Generator[Event, None, Any], timeout: float
) -> Generator[Event, None, Any]:
    """Run ``gen`` as a process, racing it against ``timeout`` seconds.

    Returns the generator's result if it finishes first; raises
    :class:`RpcTimeout` if the deadline fires first.  Application-level
    exceptions raised by ``gen`` propagate unchanged.
    """
    attempt = env.process(gen, name="rpc-attempt")
    deadline = env.timeout(timeout)
    fired = yield env.any_of((attempt, deadline))
    if attempt in fired:
        return fired[attempt]
    raise RpcTimeout(f"rpc attempt exceeded {timeout * 1e6:.0f}us deadline")
