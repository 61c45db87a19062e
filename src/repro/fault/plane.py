"""The fault plane: a deterministic, scriptable fault-injection registry.

One :class:`FaultPlane` instance is woven through a testbed: the fabric
consults it per message (loss / delay / duplication), the nvme-fs target
consults it per command (transient CQE errors), and scheduled crash /
restart scripts drive component ``fail``/``crash``/``restart`` hooks at
exact simulated times.  Every fault injected *and* every recovery action
taken (retry, degraded read, rebuild, breaker trip, lease expiry, WAL
replay) is recorded as a :class:`FaultEvent` on the simulated clock, so a
run's full failure history is an inspectable, comparable artifact:
:meth:`trace_signature` of two same-seed runs is identical.

Randomness comes exclusively from ``env.substream("fault:<name>")`` —
fault schedules never perturb, and are never perturbed by, workload RNG.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ..obsv.tracer import NULL_TRACER
from ..sim.core import Environment

__all__ = ["FaultEvent", "ChannelFaults", "FaultPlane"]


@dataclass(frozen=True)
class FaultEvent:
    """One fault or recovery action, stamped with simulated time."""

    time: float
    kind: str
    target: str
    detail: str = ""


@dataclass(frozen=True)
class ChannelFaults:
    """Probabilistic fault rates for one fabric channel.

    ``drop``/``dup``/``delay`` are per-message probabilities (disjoint:
    one uniform draw decides the message's fate); ``delay_time`` is the
    extra latency a delayed message pays.
    """

    drop: float = 0.0
    dup: float = 0.0
    delay: float = 0.0
    delay_time: float = 0.0


class FaultPlane:
    """Registry of fault schedules + trace of faults and recoveries."""

    #: flight-recorder hook; builders replace this with a live tracer
    tracer = NULL_TRACER

    def __init__(self, env: Environment, name: str = "fault"):
        self.env = env
        self.name = name
        self.rng = env.substream(f"fault:{name}")
        self.trace: list[FaultEvent] = []
        #: (src|None, dst|None) -> ChannelFaults; most-specific match wins
        self._channels: dict[Tuple[Optional[str], Optional[str]], ChannelFaults] = {}
        self._nvme_rate = 0.0
        self._nvme_status = 0
        self.enabled = True

    # -- trace ---------------------------------------------------------------
    def record(self, kind: str, target: str, detail: str = "") -> None:
        """Append a fault/recovery event at the current simulated time."""
        self.trace.append(FaultEvent(self.env.now, kind, target, detail))
        self.tracer.instant(kind, track="fault", target=target, detail=detail)

    def counts(self) -> dict[str, int]:
        """Histogram of trace event kinds."""
        return dict(Counter(ev.kind for ev in self.trace))

    def trace_signature(self) -> Tuple[Tuple[float, str, str, str], ...]:
        """Hashable digest of the full trace, for determinism assertions."""
        return tuple((ev.time, ev.kind, ev.target, ev.detail) for ev in self.trace)

    # -- channel (RDMA fabric) faults ---------------------------------------
    def set_channel(
        self,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        faults: ChannelFaults = ChannelFaults(),
    ) -> None:
        """Install fault rates for messages from ``src`` to ``dst``.

        ``None`` wildcards either side; ``(src, dst)`` beats ``(src, *)``
        beats ``(*, dst)`` beats ``(*, *)``.
        """
        self._channels[(src, dst)] = faults

    def channel_action(self, src: str, dst: str) -> Tuple[str, float]:
        """Decide one message's fate: ``(action, extra_delay)``.

        ``action`` is ``"ok"``, ``"drop"``, ``"dup"`` or ``"delay"``.
        Fast path: no matching rule means no RNG draw, so an inert plane
        leaves the event stream untouched.
        """
        if not self.enabled or not self._channels:
            return ("ok", 0.0)
        cf = (
            self._channels.get((src, dst))
            or self._channels.get((src, None))
            or self._channels.get((None, dst))
            or self._channels.get((None, None))
        )
        if cf is None:
            return ("ok", 0.0)
        u = self.rng.random()
        edge = f"{src}->{dst}"
        if u < cf.drop:
            self.record("net-drop", edge)
            return ("drop", 0.0)
        if u < cf.drop + cf.dup:
            self.record("net-dup", edge)
            return ("dup", 0.0)
        if cf.delay > 0.0 and u < cf.drop + cf.dup + cf.delay:
            self.record("net-delay", edge, f"{cf.delay_time:.2e}")
            return ("delay", cf.delay_time)
        return ("ok", 0.0)

    # -- NVMe transient completion errors -----------------------------------
    def set_nvme_error_rate(self, rate: float, status: int) -> None:
        """Fail this fraction of nvme-fs commands with ``status`` (an Errno)."""
        self._nvme_rate = rate
        self._nvme_status = status

    def nvme_error(self, qid: int) -> Optional[int]:
        """CQE status to inject for one command, or ``None`` (no RNG draw
        at rate 0)."""
        if not self.enabled or self._nvme_rate <= 0.0:
            return None
        if self.rng.random() < self._nvme_rate:
            self.record("nvme-transient", f"q{qid}", str(self._nvme_status))
            return self._nvme_status
        return None

    # -- scheduled crash / restart scripts ----------------------------------
    @staticmethod
    def _label(target: Any) -> str:
        return (
            getattr(target, "name", None)
            or getattr(target, "src", None)
            or type(target).__name__
        )

    def crash_at(
        self,
        t: float,
        target: Any,
        restart_at: Optional[float] = None,
        drop: bool = False,
        label: Optional[str] = None,
    ) -> None:
        """Schedule ``target`` to go down at sim-time ``t``.

        ``drop=True`` prefers the target's ``crash()`` hook (messages
        vanish; clients need timeouts to notice); otherwise ``fail()``
        (the component answers "I am down").  ``restart_at`` schedules the
        matching ``restart()``/``recover()`` hook, yielding through it if
        recovery itself costs simulated time (e.g. a WAL replay).
        """
        name = label or self._label(target)

        def script():
            if t > self.env.now:
                yield self.env.timeout(t - self.env.now)
            if drop and hasattr(target, "crash"):
                target.crash()
                self.record("crash", name)
            else:
                target.fail()
                self.record("fail", name)
            if restart_at is not None:
                delay = max(0.0, restart_at - self.env.now)
                if delay > 0:
                    yield self.env.timeout(delay)
                hook = getattr(target, "restart", None) or target.recover
                result = hook()
                if hasattr(result, "send"):  # recovery is a costed process
                    yield from result
                self.record("restart", name)

        self.env.process(script(), name=f"fault-script-{name}")
