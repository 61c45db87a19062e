"""CPU core pools with busy-time accounting.

The paper's headline claims are about *where cycles are spent*: an optimized
fs-client burns 30 host cores; DPC burns 3.6 host cores and pushes the work
onto 24 DPU cores; KVFS IOPS stops scaling when the DPU pool saturates.

A :class:`CpuPool` is a counted resource of ``cores``.  Work is charged with
``yield from pool.execute(seconds)``; the pool records busy time per tag so
experiments can report "CPU cores consumed" exactly the way the paper does
(busy-seconds / elapsed-seconds).

Oversubscription: when more runnable tasks exist than cores, real kernels pay
context-switch and cache-pollution costs.  We charge an extra
``switch_cost * min(waiters, max_penalty)`` per grant, which produces the
32-thread performance peak the paper observes (their DPU has 24 worker
cores; beyond that, added concurrency only adds scheduling overhead).
"""

from __future__ import annotations

from typing import Generator

from .core import Environment, Event
from .resources import Resource

__all__ = ["CpuPool"]


class CpuPool:
    """A pool of identical cores with utilisation accounting."""

    def __init__(
        self,
        env: Environment,
        cores: int,
        name: str = "cpu",
        perf: float = 1.0,
        switch_cost: float = 0.7e-6,
        max_penalty_waiters: int = 8,
    ):
        if cores < 1:
            raise ValueError("cores must be >= 1")
        if perf <= 0:
            raise ValueError("perf must be positive")
        self.env = env
        self.cores = cores
        self.name = name
        #: relative per-core speed (1.0 = reference host core).  DPU wimpy
        #: cores use perf < 1: the same task costs more seconds there.
        self.perf = perf
        self.switch_cost = switch_cost
        self.max_penalty_waiters = max_penalty_waiters
        self._res = Resource(env, cores)
        self.busy_seconds = 0.0
        self.busy_by_tag: dict[str, float] = {}
        self._window_start = 0.0
        self._window_busy_base = 0.0

    # -- work execution -------------------------------------------------------
    def execute(self, seconds: float, tag: str = "") -> Generator[Event, None, None]:
        """Occupy one core for ``seconds`` of reference-core work."""
        if seconds < 0:
            raise ValueError("negative work")
        req = self._res.request()
        waiters_at_issue = self._res.queue_len
        yield req
        work = seconds / self.perf
        if waiters_at_issue > 0 or self._res.queue_len > 0:
            work += self.switch_cost * min(
                max(waiters_at_issue, self._res.queue_len), self.max_penalty_waiters
            )
        try:
            if work > 0:
                yield self.env.timeout(work)
        finally:
            self._res.release(req)
            self.busy_seconds += work
            if tag:
                self.busy_by_tag[tag] = self.busy_by_tag.get(tag, 0.0) + work

    # -- metrics ----------------------------------------------------------------
    def begin_window(self) -> None:
        """Start a measurement window (call at the start of the steady state)."""
        self._window_start = self.env.now
        self._window_busy_base = self.busy_seconds

    def window_cores_used(self) -> float:
        """Average number of cores busy since :meth:`begin_window`."""
        elapsed = self.env.now - self._window_start
        if elapsed <= 0:
            return 0.0
        return (self.busy_seconds - self._window_busy_base) / elapsed

    def window_usage_percent(self) -> float:
        """Pool utilisation (0-100%) since :meth:`begin_window`."""
        return 100.0 * self.window_cores_used() / self.cores
