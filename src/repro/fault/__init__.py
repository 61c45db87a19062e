"""Fault plane: deterministic fault injection + recovery primitives.

The DPC reproduction models a datacenter client stack; this package makes
that world *failable* on the simulated clock, deterministically:

* :class:`FaultPlane` — a seed-reproducible registry of fault schedules
  (crash/restart at sim-time T, probabilistic message loss/delay/dup,
  NVMe transient completion errors) plus a trace of every fault *and*
  every recovery action, so availability and tail-latency-under-failure
  are measurable outputs.
* :class:`RetryPolicy` / :class:`RequestEngine` — per-RPC timeouts with
  exponential backoff + deterministic jitter and a bounded retry budget.
* :class:`CircuitBreaker` — closed/open/half-open breaker used to degrade
  the hybrid cache to write-through when the DPU-side flusher backend is
  unreachable.
* :class:`IdempotencyFilter` — server-side dedupe of retried/duplicated
  mutations keyed by client-issued idempotency tokens.

Everything draws randomness from :meth:`Environment.substream`, so two
runs with the same master seed replay bit-identical fault schedules and
event traces.
"""

from .breaker import CircuitBreaker
from .idempotency import IdempotencyFilter
from .plane import ChannelFaults, FaultEvent, FaultPlane
from .requests import Attempt, Outcome, ReqStats, RequestConfig, RequestEngine
from .retry import (
    RetryBudgetExceeded,
    RetryPolicy,
    RpcTimeout,
    retry_policy_from,
)

__all__ = [
    "Attempt",
    "ChannelFaults",
    "CircuitBreaker",
    "FaultEvent",
    "FaultPlane",
    "IdempotencyFilter",
    "Outcome",
    "ReqStats",
    "RequestConfig",
    "RequestEngine",
    "RetryBudgetExceeded",
    "RetryPolicy",
    "RpcTimeout",
    "retry_policy_from",
]
