"""Unified request engine: deadlines, backoff, hedging, tied requests.

Every remote call the clients make — DFS metadata RPCs, stripe-unit I/O,
KV operations, delegation recalls, migration chunk streams — historically
carried its own copy of the same retry/timeout loop.  This module owns
that loop once, as an :class:`Attempt`/:class:`Outcome` abstraction, and
layers four tail-latency policies on top:

* **hedging** — after a per-endpoint delay derived from the live
  SketchHub p99 of that endpoint's observed latencies (never a fixed
  constant), a second attempt is issued: to the same authority (retried
  MDS/KV mutations dedupe on their idempotency token), to the
  re-resolved ring owner for elastic KV, or down an EC-degraded
  reconstruction path for stripe reads.  First answer wins.
* **tied requests** — the losing attempt is cancelled *on the wire*: a
  costed fabric-level cancel message marks the request id abandoned at
  the destination endpoint, and the server's abandon check (before and
  after thread admission) drops it unanswered, freeing the queue slot.
* **attempt deadlines** — a request's first attempt gives up after
  ``timeout_multiplier`` times the endpoint's observed
  ``timeout_quantile`` latency (clamped into [hedge floor, policy
  timeout]) once the sketch holds ``ceil(10 / (1 - q))`` observations —
  ten beyond the quantile; a colder endpoint, and every retry, waits the
  policy timeout, so the retry window that rides out an outage is fixed.
* **adaptive retry budgets** — with ``adaptive_retry`` on, per-endpoint
  retry budgets shed instead of hammering a saturated server, and backoff
  tracks the endpoint's observed p50.

Determinism contract: a call without a retry policy (``rpc_timeout`` 0)
is a bare ``fabric.rpc`` — no deadline process, no RNG draw — so fail-free
runs do not see the engine at all.  Every call with a policy runs the one
race loop; its deadlines, hedge delays and backoffs are functions of the
endpoint's sketch and the caller's RNG substream only, so runs stay
bit-reproducible from the master seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from ..obsv.quantiles import NULL_HUB
from ..sim.core import Environment, Event
from .retry import RetryBudgetExceeded, RetryPolicy, RpcTimeout

__all__ = ["Attempt", "Outcome", "ReqStats", "RequestConfig", "RequestEngine"]

#: sentinel distinguishing "argument not given" from an explicit None
_UNSET = object()


@dataclass(frozen=True)
class RequestConfig:
    """Hedging / tied-request / adaptive-retry / deadline knobs."""

    #: issue a second attempt after the per-endpoint hedge delay
    hedging: bool = False
    #: hedge after this quantile of the endpoint's observed latency...
    hedge_quantile: float = 0.99
    #: ...scaled by this factor
    hedge_multiplier: float = 1.0
    #: clamp the derived hedge delay into [floor, ceiling]
    hedge_floor: float = 30e-6
    hedge_ceiling: float = 2e-3
    #: extra attempts a single logical request may hedge
    hedge_max: int = 1
    #: observations an endpoint sketch needs before its quantiles are trusted
    hedge_min_obs: int = 16
    #: cancel the losing attempt on the wire (tied requests)
    tied_cancel: bool = True
    #: quantile-fed backoff and per-endpoint retry budgets
    adaptive_retry: bool = False
    #: retries allowed per endpoint: budget_min + budget_ratio * attempts
    budget_ratio: float = 0.1
    budget_min: int = 8
    #: first-attempt deadline: this quantile times the multiplier,
    #: clamped into [hedge_floor, policy timeout]
    timeout_quantile: float = 0.99
    timeout_multiplier: float = 3.0

    @property
    def enabled(self) -> bool:
        """Hedging or adaptive retry on?  Gates the ``req.*`` registry keys."""
        return self.hedging or self.adaptive_retry

    @property
    def timeout_min_obs(self) -> int:
        """Observations before the sketch sets deadlines: ten samples beyond
        ``timeout_quantile`` (1000 for p99)."""
        # - 1e-6: 1 - 0.9 is 0.09999999999999998, which would ask for 101
        return math.ceil(10.0 / (1.0 - self.timeout_quantile) - 1e-6)

    @classmethod
    def from_params(cls, p) -> "RequestConfig":
        return cls(
            hedging=p.req_hedging,
            hedge_quantile=p.req_hedge_quantile,
            hedge_multiplier=p.req_hedge_multiplier,
            hedge_floor=p.req_hedge_floor,
            hedge_ceiling=p.req_hedge_ceiling,
            hedge_max=p.req_hedge_max,
            hedge_min_obs=p.req_hedge_min_obs,
            tied_cancel=p.req_tied_cancel,
            adaptive_retry=p.req_adaptive_retry,
            budget_ratio=p.req_budget_ratio,
            budget_min=p.req_budget_min,
            timeout_quantile=p.req_timeout_quantile,
            timeout_multiplier=p.req_timeout_multiplier,
        )


DEFAULT_CONFIG = RequestConfig()


@dataclass
class Attempt:
    """One in-flight try of a logical request."""

    index: int
    dst: str
    #: "primary" | "hedge" (wire attempt) | "hedge-path" (e.g. EC-degraded)
    kind: str
    sent_at: float
    #: wire request id for cancellation; None = uncancellable (hedge-path)
    rid: Optional[tuple]
    proc: Any


@dataclass
class Outcome:
    """The winning answer of a logical request."""

    value: Any
    attempt: Attempt
    elapsed: float

    @property
    def hedged(self) -> bool:
        return self.attempt.kind != "primary"


class ReqStats:
    """Per-endpoint request-engine counters."""

    __slots__ = (
        "attempts", "hedges", "hedge_wins", "cancels",
        "budget_exhausted", "retries", "timeouts",
    )

    def __init__(self) -> None:
        self.attempts = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.cancels = 0
        self.budget_exhausted = 0
        self.retries = 0
        #: attempt deadlines that fired
        self.timeouts = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "attempts": self.attempts,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "cancels": self.cancels,
            "budget_exhausted": self.budget_exhausted,
            "timeouts": self.timeouts,
        }


class RequestEngine:
    """The one retry/timeout/hedge loop every remote call routes through.

    One engine per call-site owner (DFS client, stripe engine, KV client,
    rebalancer, MDS recall path); the owner passes its RNG substream, fault
    plane and sketch hub.
    """

    def __init__(
        self,
        env: Environment,
        fabric,
        src: str,
        policy: Optional[RetryPolicy] = None,
        *,
        plane=None,
        rng: Optional[random.Random] = None,
        hub_fn: Optional[Callable[[], Any]] = None,
        config: RequestConfig = DEFAULT_CONFIG,
    ):
        self.env = env
        self.fabric = fabric
        self.src = src
        self.policy = policy
        self.plane = plane
        self.rng = rng
        self._hub_fn = hub_fn
        self.config = config or DEFAULT_CONFIG
        #: per-endpoint counters, keyed by destination (or explicit endpoint)
        self.stats: dict[str, ReqStats] = {}
        #: aggregate counters the obsv collectors read via properties
        self.retries = 0
        self.timeouts_exhausted = 0
        self._opseq = 0
        self._rid_seq = 0

    # -- idempotency tokens -----------------------------------------------------
    def next_token(self) -> str:
        """Mint the next idempotency token for a mutating request."""
        self._opseq += 1
        return f"{self.src}#{self._opseq}"

    # -- stats -------------------------------------------------------------------
    def stat(self, endpoint: str) -> ReqStats:
        st = self.stats.get(endpoint)
        if st is None:
            st = self.stats[endpoint] = ReqStats()
        return st

    def _hub(self):
        if self._hub_fn is None:
            return NULL_HUB
        return self._hub_fn() or NULL_HUB

    @staticmethod
    def _sketch_count(hub, name: str) -> int:
        sk = getattr(hub, "_sketches", {}).get(name)
        return 0 if sk is None else sk.count

    # -- the unified call --------------------------------------------------------
    def call(
        self,
        dst: str,
        payload: Any,
        size: int,
        *,
        op_label: Optional[str] = None,
        policy: Any = _UNSET,
        rng: Any = _UNSET,
        endpoint: Optional[str] = None,
        retry_kind: str = "retry",
        exhaust_kind: Optional[str] = "retry-exhausted",
        on_exhausted: str = "raise",
        exhausted_value: Any = None,
        hedge_to: Optional[Callable[[], str]] = None,
        hedge_gen: Optional[Callable[[], Generator]] = None,
    ) -> Generator[Event, None, Any]:
        """Issue one logical request; returns the winning reply payload.

        ``on_exhausted`` selects the historical exhaustion contract of the
        call site: ``"raise"`` (count + record + RetryBudgetExceeded),
        ``"return"`` (record if ``exhaust_kind`` set, return
        ``exhausted_value``), or ``"raise-timeout"`` (re-raise the bare
        RpcTimeout).  ``hedge_to`` resolves an alternate wire destination
        at hedge time; ``hedge_gen`` builds an alternate non-wire path
        (EC-degraded reconstruction).  Hedging only engages when one of
        the two is provided *and* the config enables it.
        """
        pol = self.policy if policy is _UNSET else policy
        rng = self.rng if rng is _UNSET else rng
        ep = endpoint or dst
        st = self.stat(ep)
        if pol is None:
            # Fail-free fast path: no deadline process, no extra RNG draws.
            st.attempts += 1
            resp = yield from self.fabric.rpc(self.src, dst, payload, size)
            return resp
        cfg = self.config
        hub = self._hub()
        timeout = self._first_timeout(ep, pol, cfg, hub)
        for attempt in range(1, pol.max_attempts + 1):
            try:
                outcome = yield from self._race(
                    dst, payload, size, st, cfg, hub, ep, timeout,
                    hedge_to, hedge_gen,
                )
                return outcome.value
            except RpcTimeout:
                exhausted = attempt >= pol.max_attempts
                if not exhausted and cfg.adaptive_retry and not self._budget_ok(st, cfg):
                    # Saturated endpoint: shed instead of piling on.
                    st.budget_exhausted += 1
                    exhausted = True
                if exhausted:
                    yield from self._exhaust(
                        dst, op_label, attempt, exhaust_kind, on_exhausted
                    )
                    return exhausted_value
                self.retries += 1
                st.retries += 1
                if self.plane is not None:
                    self.plane.record(
                        retry_kind, self.src, self._retry_label(dst, op_label, attempt)
                    )
                yield self.env.timeout(
                    self._backoff(ep, pol, cfg, hub, attempt, rng)
                )
                # Retries keep the full policy timeout: the retry window
                # that rides out an outage must not shrink with the sketch.
                timeout = pol.timeout

    def _retry_label(self, dst: str, op_label: Optional[str], attempt: int) -> str:
        if op_label is None:
            return f"{dst}#{attempt}"
        return f"{dst}:{op_label}#{attempt}"

    def _exhaust(
        self, dst, op_label, attempt, exhaust_kind, on_exhausted,
    ) -> Generator[Event, None, None]:
        """Apply the site's historical exhaustion contract (no events)."""
        yield from ()
        if on_exhausted == "raise-timeout":
            raise  # re-raise the RpcTimeout being handled  # noqa: PLE0704
        if on_exhausted == "raise":
            self.timeouts_exhausted += 1
            if self.plane is not None and exhaust_kind is not None:
                self.plane.record(exhaust_kind, self.src, dst)
            raise RetryBudgetExceeded(
                f"{self.src}->{dst} {op_label} failed after {attempt} attempts"
            )
        # on_exhausted == "return": caller hands back exhausted_value
        if self.plane is not None and exhaust_kind is not None:
            self.plane.record(exhaust_kind, self.src, dst)

    # -- the race loop -----------------------------------------------------------
    def _budget_ok(self, st: ReqStats, cfg: RequestConfig) -> bool:
        return st.retries < cfg.budget_min + cfg.budget_ratio * st.attempts

    def _race(
        self, dst, payload, size, st, cfg, hub, ep, timeout, hedge_to, hedge_gen,
    ) -> Generator[Event, None, Outcome]:
        """Race the primary, an optional hedge, and the deadline.

        Attempts are wrapped to *return* tagged outcomes, never raise, so
        a failing loser can't poison the AnyOf condition.  The winner's
        latency feeds the endpoint sketch; losers are cancelled on the
        wire when tied-request cancellation is on.
        """
        env = self.env
        t0 = env.now
        pending: list[Attempt] = []
        n_spawned = 0

        def wire(d: str, rid: tuple):
            def _g():
                try:
                    resp = yield from self.fabric.rpc(self.src, d, payload, size, rid=rid)
                except Exception as exc:  # pragma: no cover - defensive
                    return ("dead", exc)
                return ("ok", resp)
            return _g()

        def path(gen):
            def _g():
                try:
                    val = yield from gen
                except Exception as exc:
                    return ("dead", exc)
                return ("ok", val)
            return _g()

        def spawn_wire(d: str, kind: str) -> Attempt:
            nonlocal n_spawned
            self._rid_seq += 1
            rid = (self.src, self._rid_seq)
            proc = env.process(wire(d, rid), name="req-attempt")
            a = Attempt(n_spawned, d, kind, env.now, rid, proc)
            n_spawned += 1
            pending.append(a)
            st.attempts += 1
            return a

        spawn_wire(dst, "primary")
        deadline = env.timeout(timeout)
        hedge_delay = None
        if cfg.hedging and (hedge_to is not None or hedge_gen is not None):
            hedge_delay = self._hedge_delay(ep, cfg, hub, timeout)
        hedge_timer = env.timeout(hedge_delay) if hedge_delay is not None else None
        hedges_issued = 0

        while True:
            events = [a.proc for a in pending]
            if hedge_timer is not None:
                events.append(hedge_timer)
            events.append(deadline)
            fired = yield env.any_of(events)

            winner: Optional[tuple[Attempt, Any]] = None
            for a in list(pending):
                if a.proc in fired:
                    tag, val = fired[a.proc]
                    pending.remove(a)
                    if tag == "ok":
                        winner = (a, val)
                        break
            if winner is not None:
                a, val = winner
                if a.kind != "primary":
                    st.hedge_wins += 1
                if a.kind != "hedge-path":
                    hub.observe(f"req.{ep}", env.now - a.sent_at)
                self._cancel_losers(pending, st)
                return Outcome(value=val, attempt=a, elapsed=env.now - t0)

            if deadline in fired:
                # Attempt deadline: cancel what's still in flight and
                # report this attempt as timed out.
                st.timeouts += 1
                self._cancel_losers(pending, st)
                raise RpcTimeout(
                    f"rpc attempt exceeded {timeout * 1e6:.0f}us deadline"
                )

            if hedge_timer is not None and hedge_timer in fired:
                hedge_timer = None
                st.hedges += 1
                hedges_issued += 1
                if hedge_gen is not None:
                    proc = env.process(path(hedge_gen()), name="req-hedge")
                    pending.append(
                        Attempt(n_spawned, dst, "hedge-path", env.now, None, proc)
                    )
                    n_spawned += 1
                else:
                    spawn_wire(hedge_to(), "hedge")
                if hedges_issued < cfg.hedge_max and hedge_gen is None:
                    hedge_timer = env.timeout(hedge_delay)

            if not pending and hedge_timer is None:
                # Every attempt died before the deadline: fail this attempt
                # now instead of idling until the deadline fires.
                raise RpcTimeout(
                    f"rpc attempt exceeded {timeout * 1e6:.0f}us deadline"
                )

    def _cancel_losers(self, losers: list[Attempt], st: ReqStats) -> None:
        """Fire-and-forget wire cancels for still-pending tied losers."""
        if not self.config.tied_cancel:
            return
        for a in losers:
            if a.rid is None or a.proc.triggered:
                continue
            st.cancels += 1
            self.env.process(
                self.fabric.cancel(self.src, a.dst, a.rid), name="req-cancel"
            )

    # -- quantile-fed schedule -----------------------------------------------------
    def _hedge_delay(self, ep, cfg, hub, timeout) -> Optional[float]:
        """p99-derived hedge delay, or None when the sketch is too cold or
        the delay would land beyond the attempt deadline anyway."""
        name = f"req.{ep}"
        if self._sketch_count(hub, name) < cfg.hedge_min_obs:
            return None
        d = hub.quantile(name, cfg.hedge_quantile) * cfg.hedge_multiplier
        d = min(max(d, cfg.hedge_floor), cfg.hedge_ceiling)
        return None if d >= timeout else d

    def _first_timeout(self, ep, pol, cfg, hub) -> float:
        """First-attempt deadline: the endpoint's ``timeout_quantile``
        times the multiplier, clamped into [hedge floor, policy timeout];
        the policy timeout until the sketch is warm."""
        name = f"req.{ep}"
        if self._sketch_count(hub, name) < cfg.timeout_min_obs:
            return pol.timeout
        t = hub.quantile(name, cfg.timeout_quantile) * cfg.timeout_multiplier
        return min(max(t, cfg.hedge_floor), pol.timeout)

    def _backoff(self, ep, pol, cfg, hub, attempt, rng) -> float:
        """Quantile-fed backoff: pace retries by the endpoint's observed
        median instead of the fixed base when enough data exists."""
        if cfg.adaptive_retry:
            name = f"req.{ep}"
            if self._sketch_count(hub, name) >= cfg.hedge_min_obs:
                raw = hub.quantile(name, 0.5) * (pol.backoff_mult ** (attempt - 1))
                raw = max(raw, cfg.hedge_floor)
                if pol.jitter > 0.0 and rng is not None:
                    raw *= 1.0 + pol.jitter * (2.0 * rng.random() - 1.0)
                return max(raw, 0.0)
        return pol.backoff(attempt, rng)
