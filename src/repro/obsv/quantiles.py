"""Streaming per-endpoint quantile sketches (DESIGN.md §15).

A :class:`QuantileSketch` is a DDSketch-style log-bucket sketch: values land
in geometrically spaced buckets ``gamma**i`` with ``gamma = (1+a)/(1-a)``,
which bounds the *relative* error of any reported quantile by ``a`` while
keeping ``observe()`` O(1) (one ``log``, one dict increment; a sorted
insert only when a new bucket appears) and the whole structure mergeable
by bucket-count addition.  Everything is plain integer
arithmetic over deterministic float math — two same-seed runs produce
bit-identical sketches.

:class:`SketchHub` is the per-system front door: components observe
latencies by dotted endpoint name (``kv.rpc.get``, ``dispatch.dfs``,
``client.read`` …); the hub lazily creates one sketch per name, exposes a
registry collector emitting ``lat.<name>.p50/p95/p99/p999`` (microseconds)
plus counts, and fans every observation out to subscribers (the SLO engine
taps this to track error budgets in simulated time).

``NULL_HUB`` is the zero-cost default: components carry a class-level
``sketches = NULL_HUB`` attribute, so un-instrumented builds pay one
attribute read and a no-op call per choke point — nothing else.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Callable, Optional

__all__ = ["QuantileSketch", "SketchHub", "NullSketchHub", "NULL_HUB"]

#: Values at or below this (seconds) collapse into the zero bucket: a
#: same-instant completion has no meaningful relative error to preserve.
MIN_VALUE = 1e-9

#: Default relative-error bound.  2 % keeps the sketch within ~350 buckets
#: over the ns..hour range this simulator can produce.
DEFAULT_ALPHA = 0.02

QUANTILE_LABELS = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999))


class QuantileSketch:
    """Mergeable log-bucket quantile sketch with relative error ``alpha``."""

    __slots__ = (
        "name", "alpha", "gamma", "_log_gamma", "_idx_memo",
        "buckets", "_keys", "zero_count", "count", "total", "min", "max",
    )

    #: cap on the per-sketch value -> bucket-index memo (DES latencies are
    #: derived from a fixed parameter set, so the same floats recur heavily)
    _MEMO_MAX = 8192

    def __init__(self, name: str = "", alpha: float = DEFAULT_ALPHA):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.name = name
        self.alpha = alpha
        self.gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self.gamma)
        self._idx_memo: dict[float, int] = {}
        self.buckets: dict[int, int] = {}
        #: ``sorted(buckets)``, kept up to date so reads never sort
        self._keys: list[int] = []
        self.zero_count = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    # -- write path ----------------------------------------------------------
    def observe(self, v: float) -> None:
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        if v <= MIN_VALUE:
            self.zero_count += 1
            return
        memo = self._idx_memo
        i = memo.get(v)
        if i is None:
            i = math.ceil(math.log(v) / self._log_gamma)
            if len(memo) < self._MEMO_MAX:
                memo[v] = i
        buckets = self.buckets
        n = buckets.get(i)
        if n is None:
            buckets[i] = 1
            insort(self._keys, i)
        else:
            buckets[i] = n + 1

    def merge(self, other: "QuantileSketch") -> None:
        if other.gamma != self.gamma:
            raise ValueError("cannot merge sketches with different gamma")
        for i, n in other.buckets.items():
            self.buckets[i] = self.buckets.get(i, 0) + n
        self._keys = sorted(self.buckets)
        self.zero_count += other.zero_count
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    # -- read path -----------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile; relative error ≤ ``alpha`` vs the exact
        quantile of the observed multiset (zero bucket reported as 0)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = int(q * (self.count - 1))
        if rank < self.zero_count:
            return 0.0
        cum = self.zero_count
        buckets = self.buckets
        for i in self._keys:
            cum += buckets[i]
            if cum > rank:
                # Midpoint of (gamma**(i-1), gamma**i] in the geometric
                # sense: 2*gamma**i/(gamma+1) keeps the error within alpha.
                return 2.0 * self.gamma ** i / (self.gamma + 1.0)
        return self.max  # pragma: no cover - defensive (rank < count always hits)

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, float]:
        out = {"count": float(self.count)}
        for label, q in QUANTILE_LABELS:
            out[label] = self.quantile(q)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<QuantileSketch {self.name!r} n={self.count} "
            f"p99={self.quantile(0.99):.3g}>"
        )


class SketchHub:
    """Named get-or-create sketches + observation fan-out for one system."""

    enabled = True

    def __init__(self, alpha: float = DEFAULT_ALPHA,
                 now_fn: Optional[Callable[[], float]] = None):
        self.alpha = alpha
        self.now_fn = now_fn
        self._sketches: dict[str, QuantileSketch] = {}
        self._listeners: list[Callable[[str, float], None]] = []

    def sketch(self, name: str) -> QuantileSketch:
        sk = self._sketches.get(name)
        if sk is None:
            sk = self._sketches[name] = QuantileSketch(name, self.alpha)
        return sk

    def observe(self, name: str, seconds: float) -> None:
        sk = self._sketches.get(name)
        if sk is None:
            sk = self._sketches[name] = QuantileSketch(name, self.alpha)
        sk.observe(seconds)
        if self._listeners:
            for fn in self._listeners:
                fn(name, seconds)

    def subscribe(self, fn: Callable[[str, float], None]) -> None:
        """Call ``fn(name, seconds)`` on every observation (SLO engine tap)."""
        self._listeners.append(fn)

    def names(self) -> list[str]:
        return sorted(self._sketches)

    def total(self, name: str) -> float:
        sk = self._sketches.get(name)
        return sk.total if sk is not None else 0.0

    def quantile(self, name: str, q: float, default: float = 0.0) -> float:
        sk = self._sketches.get(name)
        return sk.quantile(q) if sk is not None and sk.count else default

    def collect(self) -> dict[str, float]:
        """Registry collector: ``lat.<name>.{count,p50,p95,p99,p999}`` (µs)."""
        out: dict[str, float] = {}
        for name in sorted(self._sketches):
            sk = self._sketches[name]
            pre = f"lat.{name}"
            out[f"{pre}.count"] = sk.count
            for label, q in QUANTILE_LABELS:
                out[f"{pre}.{label}"] = round(sk.quantile(q) * 1e6, 4)
        return out


class NullSketchHub:
    """No-op hub: the zero-cost default for un-instrumented builds."""

    enabled = False
    __slots__ = ()

    def sketch(self, name: str) -> None:  # pragma: no cover - never hot
        return None

    def observe(self, name: str, seconds: float) -> None:
        return None

    def subscribe(self, fn) -> None:  # pragma: no cover - never hot
        return None

    def names(self) -> list:
        return []

    def total(self, name: str) -> float:
        return 0.0

    def quantile(self, name: str, q: float, default: float = 0.0) -> float:
        return default

    def collect(self) -> dict:
        return {}


NULL_HUB = NullSketchHub()
