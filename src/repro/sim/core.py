"""Discrete-event simulation kernel.

A minimal, deterministic, generator-based DES in the style of SimPy.  Every
component of the DPC reproduction (drivers, caches, file systems, servers) is
written as a *process*: a Python generator that yields :class:`Event` objects
and is resumed when those events fire.

Design notes
------------
* Time is a ``float`` in **seconds**; typical event scales in this package
  are microseconds (``2e-5``), well within double precision.
* The event queue is a binary heap ordered by ``(time, priority, seq)``.
  ``seq`` is a monotonically increasing counter, which makes simulations
  fully deterministic: two runs with the same seeds produce identical event
  orderings and therefore identical results.
* Failure propagation mirrors SimPy: a failed event re-raises inside the
  waiting process via ``generator.throw``; a process that fails with nobody
  waiting on it aborts the simulation (silent loss of errors is the classic
  DES debugging trap).
"""

from __future__ import annotations

import hashlib
import random
from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "LoopStats",
    "LOOP_STATS",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
]


class LoopStats:
    """Cumulative wall-clock accounting of every :meth:`Environment.run`
    loop in this process.

    The module-level :data:`LOOP_STATS` singleton is read by the
    ``BENCH_*.json`` envelope stamper so every benchmark records the
    simulator's raw speed (``events_per_sec``) alongside its simulated
    metrics.  Two ``perf_counter`` reads per ``run()`` call — nothing on
    the per-event path.
    """

    __slots__ = ("wall_s", "events", "runs")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.wall_s = 0.0
        self.events = 0
        self.runs = 0

    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0


#: process-wide run-loop stats (see :class:`LoopStats`)
LOOP_STATS = LoopStats()

#: Event priorities.  URGENT is used for resource hand-off so that a released
#: resource is re-granted before same-timestamp timeouts observe it free.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (double trigger, bad yield, ...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value supplied by the interrupter.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event has three observable states: *pending* (created, not triggered),
    *triggered* (scheduled on the event queue with a value or an exception),
    and *processed* (its callbacks have run).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False

    # -- state inspection ---------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        if not self._triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        env = self.env
        env._seq += 1
        heappush(env._queue, (env._now, priority, env._seq, self))
        return self

    def fail(self, exc: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event as failed; waiters will see ``exc`` raised."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exc
        env = self.env
        env._seq += 1
        heappush(env._queue, (env._now, priority, env._seq, self))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self._processed else "triggered" if self._triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._triggered = True
        self._value = value
        env._seq += 1
        heappush(env._queue, (env._now + delay, PRIORITY_NORMAL, env._seq, self))


def _call_soon(env: "Environment", callback, ok: bool = True, value: Any = None) -> None:
    """Run ``callback`` at the current time, ahead of same-instant timeouts,
    with an already-triggered event carrying ``(ok, value)``."""
    event = Event(env)
    event._triggered = True
    event._ok = ok
    event._value = value
    event.callbacks.append(callback)
    env._seq += 1
    heappush(env._queue, (env._now, PRIORITY_URGENT, env._seq, event))


class Process(Event):
    """A running generator; also an event that fires when the generator ends.

    The event's value is the generator's return value (``StopIteration``
    value).  If the generator raises, the process event fails with that
    exception, propagating to any process waiting on it; if *nothing* waits
    on it, :meth:`Environment.run` re-raises to abort the simulation.  A
    generator that *returns* while nothing waits on it is marked processed on
    the spot — no end event nobody observes — and, like any already-fired
    event, resumes whoever yields on it later at once.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise TypeError(f"process() requires a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        _call_soon(env, self._resume)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            raise SimulationError("cannot interrupt a terminated process")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        _call_soon(self.env, self._resume_interrupt, False, Interrupt(cause))

    # -- resume machinery ----------------------------------------------------
    def _resume_interrupt(self, event: Event) -> None:
        if self._triggered:
            return  # process finished before the interrupt was delivered
        # Detach from whatever the process was waiting on.
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._resume(event)

    def _resume(self, event: Event) -> None:
        """Callback body: advance the generator with ``event``'s outcome."""
        env = self.env
        env._active = self
        try:
            if event._ok:
                result = self._generator.send(event._value)
            else:
                result = self._generator.throw(event._value)
        except StopIteration as stop:
            env._active = None
            self._triggered = True
            self._value = stop.value
            if self.callbacks:
                env._seq += 1
                heappush(env._queue, (env._now, PRIORITY_NORMAL, env._seq, self))
            else:
                self.callbacks = None
                self._processed = True
            return
        except BaseException as exc:
            env._active = None
            self._triggered = True
            self._ok = False
            self._value = exc
            env._seq += 1
            heappush(env._queue, (env._now, PRIORITY_NORMAL, env._seq, self))
            return
        env._active = None
        if not isinstance(result, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {result!r}; processes must yield Event"
            )
        self._target = result
        if result._processed:
            # Already fired: resume at the current time via a proxy event so
            # ordering stays heap-driven.
            _call_soon(env, self._resume, result._ok, result._value)
        else:
            result.callbacks.append(self._resume)


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = tuple(events)
        self._count = 0
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("cannot mix events from different environments")
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev._processed:
                self._check(ev)
            elif ev._triggered:
                # Triggered but callbacks not yet run: still safe to append.
                ev.callbacks.append(self._check)
            else:
                ev.callbacks.append(self._check)

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self.events if ev._processed and ev._ok}

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every sub-event has fired; value maps event -> value."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Fires when the first sub-event fires; value maps event -> value."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self.succeed(self._collect())


class Environment:
    """The simulation world: clock, event queue, and process registry."""

    def __init__(self, initial_time: float = 0.0, seed: int = 42):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active: Optional[Process] = None
        #: master seed: every stochastic element of a testbed derives its
        #: randomness from here (via :attr:`rng` or :meth:`substream`), so a
        #: whole run — workload *and* fault schedule — replays bit-identically
        #: from this one integer.
        self.seed = seed
        self.rng = random.Random(seed)
        #: optional :class:`repro.obsv.profiler.SimProfiler`; when installed,
        #: :meth:`step` routes callback execution through it for per-site
        #: wall-clock attribution.  None on the default (fast) path.
        self._profiler = None

    def substream(self, name: str) -> random.Random:
        """A named, independent RNG derived from the master seed.

        Streams are keyed by ``(seed, name)`` through blake2b (``hash()``
        is salted per interpreter run and would break reproducibility), so
        adding a consumer never perturbs the draws of existing ones.
        """
        digest = hashlib.blake2b(
            f"{self.seed}:{name}".encode(), digest_size=8
        ).digest()
        return random.Random(int.from_bytes(digest, "big"))

    # -- clock ----------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active

    # -- factories --------------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------------
    def at(self, when: float, value: Any = None) -> Event:
        """An event that fires at the absolute time ``when``: a caller that
        knows when back-to-back delays end (a pipe reservation, then a fixed
        latency) schedules one event at the sum instead of one per leg."""
        if when < self._now:
            raise ValueError(f"at({when}) lies in the past (now={self._now})")
        event = Event(self)
        event._triggered = True
        event._value = value
        self._seq += 1
        heappush(self._queue, (when, PRIORITY_NORMAL, self._seq, event))
        return event

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next event.

        A :class:`Process` that terminated with an exception and has no
        waiter re-raises here: errors never vanish silently.
        """
        t0 = perf_counter()
        when, _prio, _seq, event = heappop(self._queue)
        self._now = when
        callbacks = event.callbacks
        prof = self._profiler
        if prof is not None:
            prof.run_event(event, t0)
        else:
            event.callbacks = None
            event._processed = True
            for cb in callbacks:
                cb(event)
        if not callbacks and not event._ok and isinstance(event, Process):
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        * ``until`` is ``None``: run until the event queue drains.
        * ``until`` is a number: run until the clock reaches it.
        * ``until`` is an :class:`Event`: run until that event fires and
          return its value (re-raising its exception on failure).
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError("until lies in the past")

        queue = self._queue
        t0 = perf_counter()
        seq0 = self._seq
        try:
            # step() inlined (one frame per event, not three); profiled runs keep it
            while queue:
                if stop_event is not None and stop_event._processed:
                    break
                if queue[0][0] > stop_time:
                    self._now = stop_time
                    break
                if self._profiler is not None:
                    self.step()
                    continue
                self._now, _prio, _seq, event = heappop(queue)
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                if callbacks:
                    for cb in callbacks:
                        cb(event)
                elif not event._ok and isinstance(event, Process):
                    raise event._value
        finally:
            LOOP_STATS.wall_s += perf_counter() - t0
            LOOP_STATS.events += self._seq - seq0
            LOOP_STATS.runs += 1

        if stop_event is not None:
            if not stop_event._triggered:
                raise SimulationError("simulation ended before the awaited event fired")
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        return None
