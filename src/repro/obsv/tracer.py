"""Span tracer over the DES clock.

A :class:`Span` is a named interval ``[start, end]`` in *simulated* seconds,
attached to a **track** (the component/core lane it renders on in Perfetto:
``host``, ``cache``, ``transport``, ``dpu``, ``net``, ``pcie``, ``fault``)
and to a parent span, forming one tree per client operation even though the
layers execute in different simulated processes.

Context propagation has two modes, mirroring how real tracers cross thread
and RPC boundaries:

* **implicit** — within one simulated process, ``tracer.span(...)`` nests
  under the innermost open span of *that process* (a per-process stack keyed
  by ``env.active_process``; concurrent processes never contaminate each
  other's stacks).
* **explicit handoff** — across the simulated PCIe/RDMA boundaries the span
  context rides with the request: the producer calls
  ``tracer.handoff(key)`` (e.g. ``key=("nvme", qid, cid)``) and the consumer
  on the far side calls ``tracer.adopt(key)`` and passes the result as
  ``parent=``.  This is how a host adapter span links to the DPU-side
  processing span for the same command.

The tracer never yields and never touches the event queue: enabling it
cannot change a simulation's timing or event order, only record it.  The
default :data:`NULL_TRACER` makes every call site a no-op (shared singleton
span, no allocation), so instrumentation stays in the code unconditionally.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]

_UNSET = object()


class Span:
    """One timed interval on a track; also its own context manager."""

    __slots__ = (
        "tracer",
        "name",
        "track",
        "start",
        "end",
        "span_id",
        "parent_id",
        "attrs",
        "_key",
    )

    def __init__(self, tracer: "Tracer", name: str, track: str,
                 parent_id: Optional[int], attrs: dict):
        self.tracer = tracer
        self.name = name
        self.track = track
        self.start = tracer.env.now
        self.end: Optional[float] = None
        self.span_id = tracer._next_id()
        self.parent_id = parent_id
        self.attrs = attrs
        self._key = None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.tracer.env.now) - self.start

    def set(self, **attrs: Any) -> "Span":
        """Attach/overwrite attributes mid-span (e.g. ``hit=True``)."""
        self.attrs.update(attrs)
        return self

    def finish(self) -> None:
        """End and record a span that was never entered: work no process
        waits on, such as one RPC of a fan-out its callbacks count down."""
        self.end = self.tracer.env.now
        self.tracer._record(self)

    def reparent(self, parent: Optional["Span"]) -> "Span":
        """Late parent linkage, for consumers that learn the originating
        context only after some work (e.g. the virtio HAL discovers the FUSE
        ``unique`` mid-walk)."""
        if parent is not None:
            self.parent_id = parent.span_id
        return self

    # -- context manager ----------------------------------------------------
    def __enter__(self) -> "Span":
        self.tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = self.tracer.env.now
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._pop(self)
        return False


class Tracer:
    """Records spans and instant events, stamped with ``env.now``."""

    enabled = True

    def __init__(self, env):
        self.env = env
        #: completed spans, in completion order
        self.spans: list[Span] = []
        #: (time, name, track, attrs) instant events
        self.instants: list[tuple[float, str, str, dict]] = []
        self._seq = 0
        #: per-process implicit span stacks (key = Process object or None)
        self._stacks: dict[Any, list[Span]] = {}
        #: explicit cross-process context handoffs
        self._handoff: dict[Any, Span] = {}

    def _next_id(self) -> int:
        self._seq += 1
        return self._seq

    # -- span lifecycle -----------------------------------------------------
    def span(self, name: str, track: str = "default",
             parent: Any = _UNSET, **attrs: Any) -> Span:
        """Open a span (use as ``with tracer.span(...) as sp:``).

        ``parent`` defaults to the innermost open span of the active
        simulated process; pass ``parent=None`` to force a root or an
        adopted :class:`Span` to link across a handoff boundary.
        """
        if parent is _UNSET:
            p = self.current()
            parent_id = p.span_id if p is not None else None
        elif parent is None:
            parent_id = None
        else:
            parent_id = parent.span_id
        return Span(self, name, track, parent_id, attrs)

    def current(self) -> Optional[Span]:
        stack = self._stacks.get(self.env.active_process)
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        key = self.env.active_process
        span._key = key
        stack = self._stacks.get(key)
        if stack is None:
            stack = self._stacks[key] = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stacks.get(span._key)
        if stack:
            # spans close LIFO in the overwhelming majority of cases
            if stack[-1] is span:
                stack.pop()
            elif span in stack:
                stack.remove(span)
        if not stack and span._key in self._stacks:
            del self._stacks[span._key]
        self._record(span)

    def _record(self, span: Span) -> None:
        self.spans.append(span)

    # -- instants -----------------------------------------------------------
    def instant(self, name: str, track: str = "default", **attrs: Any) -> None:
        self.instants.append((self.env.now, name, track, attrs))

    # -- cross-process propagation -------------------------------------------
    def handoff(self, key: Any, span: Optional[Span] = None) -> None:
        """Stash the current (or given) span so the far side of a queue /
        ring / mailbox can adopt it as parent."""
        sp = span if span is not None else self.current()
        if sp is not None:
            self._handoff[key] = sp

    def adopt(self, key: Any) -> Optional[Span]:
        """Claim a handed-off span context (one-shot)."""
        return self._handoff.pop(key, None)

    def bind(self, process: Any, span: Optional[Span] = None) -> None:
        """Seed a just-spawned process's implicit stack with ``span`` (default
        the caller's current span), so spans opened inside it nest under the
        spawner — used for intra-layer fan-out (e.g. striped parallel I/O)."""
        sp = span if span is not None else self.current()
        if sp is not None and process not in self._stacks:
            self._stacks[process] = [sp]

    # -- introspection --------------------------------------------------------
    def signature(self) -> tuple:
        """Hashable digest of the full trace, for determinism assertions."""
        spans = tuple(
            (round(s.start, 12), round(s.end if s.end is not None else -1.0, 12),
             s.name, s.track, s.span_id, s.parent_id or 0)
            for s in self.spans
        )
        inst = tuple(
            (round(t, 12), name, track, tuple(sorted((k, str(v)) for k, v in attrs.items())))
            for t, name, track, attrs in self.instants
        )
        return spans, inst

    def roots(self) -> list[Span]:
        ids = {s.span_id for s in self.spans}
        return [s for s in self.spans if s.parent_id is None or s.parent_id not in ids]

    def children_index(self) -> dict[int, list[Span]]:
        by_parent: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent_id is not None:
                by_parent.setdefault(s.parent_id, []).append(s)
        return by_parent


class _NullSpan:
    """Shared do-nothing span: no allocation per call site."""

    __slots__ = ()
    span_id = 0
    parent_id = None
    attrs: dict = {}

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs):
        return self

    def finish(self) -> None:
        pass

    def reparent(self, parent):
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The default tracer: every operation is a no-op."""

    enabled = False

    def span(self, name: str, track: str = "default", parent: Any = _UNSET, **attrs):
        return _NULL_SPAN

    def current(self):
        return None

    def instant(self, name: str, track: str = "default", **attrs) -> None:
        pass

    def handoff(self, key: Any, span=None) -> None:
        pass

    def adopt(self, key: Any):
        return None

    def bind(self, process: Any, span=None) -> None:
        pass

    def signature(self) -> tuple:
        return ((), ())

    spans: list = []
    instants: list = []


NULL_TRACER = NullTracer()
