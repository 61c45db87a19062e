"""Shared-resource primitives for the DES kernel.

Three primitives cover everything the DPC stack needs:

* :class:`Resource` — a counted FIFO resource (CPU cores, SSD channels,
  DMA engines).  ``request()``/``release()`` are explicit so callers can
  hold a grant across many yields.
* :class:`Store` — an unbounded-or-bounded FIFO of Python objects (message
  queues between drivers, mailboxes between host threads and DPU services).
* :class:`TokenBucket` — models bandwidth-shared links: transferring ``n``
  bytes on a link of rate ``r`` shared by ``k`` concurrent transfers takes
  time as if the link were processor-shared.  We approximate processor
  sharing with FIFO draining of a byte-queue, which preserves aggregate
  throughput exactly and per-transfer latency closely at the scales the
  experiments use.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .core import Environment, Event, SimulationError, PRIORITY_URGENT

__all__ = ["Resource", "Request", "Store", "TokenBucket"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource`."""

    __slots__ = ("resource",)

    def __init__(self, env: Environment, resource: "Resource"):
        super().__init__(env)
        self.resource = resource


class Resource:
    """Counted FIFO resource.

    Usage from a process::

        req = resource.request()
        yield req
        ...  # hold the resource
        resource.release(req)
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._users: set[Request] = set()
        self._waiters: Deque[Request] = deque()
        #: cumulative grant count, for utilisation diagnostics
        self.total_grants = 0

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self._users)

    @property
    def queue_len(self) -> int:
        """Number of waiting requests."""
        return len(self._waiters)

    def request(self) -> Request:
        req = Request(self.env, self)
        if len(self._users) < self.capacity:
            self._users.add(req)
            self.total_grants += 1
            req.succeed(priority=PRIORITY_URGENT)
        else:
            self._waiters.append(req)
        return req

    def release(self, request: Request) -> None:
        if request in self._users:
            self._users.remove(request)
        else:
            # Releasing an un-granted request cancels it.
            try:
                self._waiters.remove(request)
                return
            except ValueError:
                raise SimulationError("release of a request not held or queued")
        while self._waiters and len(self._users) < self.capacity:
            nxt = self._waiters.popleft()
            self._users.add(nxt)
            self.total_grants += 1
            nxt.succeed(priority=PRIORITY_URGENT)


class Store:
    """FIFO store of Python objects with blocking get/put."""

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Insert ``item``; the returned event fires once inserted."""
        ev = Event(self.env)
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item, priority=PRIORITY_URGENT)
            ev.succeed(priority=PRIORITY_URGENT)
        elif self.capacity is None or len(self.items) < self.capacity:
            self.items.append(item)
            ev.succeed(priority=PRIORITY_URGENT)
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        """Remove and return the oldest item (event value)."""
        ev = Event(self.env)
        if self.items:
            item = self.items.popleft()
            ev.succeed(item, priority=PRIORITY_URGENT)
            if self._putters:
                pev, pitem = self._putters.popleft()
                self.items.append(pitem)
                pev.succeed(priority=PRIORITY_URGENT)
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self.items:
            item = self.items.popleft()
            if self._putters:
                pev, pitem = self._putters.popleft()
                self.items.append(pitem)
                pev.succeed(priority=PRIORITY_URGENT)
            return True, item
        return False, None


class TokenBucket:
    """A shared bandwidth pipe.

    ``reserve(nbytes)`` returns the time at which the bytes have drained
    through the pipe, ``transfer(nbytes)`` an event that fires then.
    Transfers are serviced FIFO at ``rate`` bytes/second; total throughput
    therefore never exceeds ``rate``, and a transfer arriving at an idle
    pipe completes in exactly ``nbytes/rate``.
    """

    def __init__(self, env: Environment, rate: float, name: str = "link"):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.env = env
        self.rate = float(rate)
        self.name = name
        #: simulated time at which the pipe next becomes idle
        self._free_at = 0.0
        #: cumulative bytes pushed, for traffic accounting
        self.bytes_total = 0

    def reserve(self, nbytes: int) -> float:
        """Queue ``nbytes`` behind the transfers already accepted; returns
        the absolute time at which they have drained, as ``now + (free_at -
        now)``: the float a ``timeout(free_at - now)`` would fire at, so a
        caller may add a fixed delay and schedule one event at the sum."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        self.bytes_total += nbytes
        now = self.env._now
        self._free_at = max(now, self._free_at) + nbytes / self.rate
        return now + (self._free_at - now)

    def transfer(self, nbytes: int) -> Event:
        """Schedule ``nbytes`` through the pipe; event fires at completion."""
        return self.env.at(self.reserve(nbytes))

    def utilisation(self, horizon: float) -> float:
        """Fraction of ``horizon`` seconds' capacity consumed so far."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.bytes_total / (self.rate * horizon))
