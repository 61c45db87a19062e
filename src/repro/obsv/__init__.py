"""Flight recorder for the simulated data plane (DESIGN.md §11).

Three pieces, one package:

* :mod:`repro.obsv.tracer` — cross-layer **span tracing** on the DES clock.
  Every instrumented call site goes through a tracer unconditionally; the
  default :data:`NULL_TRACER` makes that a no-op, so tracing is
  zero-cost-when-off and never perturbs simulated time when on (the tracer
  only reads ``env.now``, it never yields).
* :mod:`repro.obsv.metrics` — a **unified metrics registry**: named
  counters/gauges/log2 histograms plus *collectors* that pull the existing
  per-component stats objects (``DmaStats``, ``CacheStats``, ``CpuPool`` …)
  into one deterministic ``Registry.snapshot()``.
* :mod:`repro.obsv.export` / :mod:`repro.obsv.report` — Chrome
  trace-event/Perfetto JSON export (loadable in ``ui.perfetto.dev``), a
  schema validator, and the "where did the time go" text report with its
  ``python -m repro.obsv.report`` CLI.

Activation: testbed builders consult the process-wide context
(:func:`get_context`); :func:`enable_tracing` (or ``REPRO_TRACE=1`` in the
environment) makes every subsequently built system carry a live
:class:`Tracer`.  Builders also accept an explicit ``trace=`` override.
"""

from __future__ import annotations

import os

from .metrics import Counter, Gauge, Log2Histogram, Registry
from .tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Log2Histogram",
    "Registry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "ObsvContext",
    "get_context",
    "enable_tracing",
    "disable_tracing",
]


class ObsvContext:
    """Process-wide observability switchboard.

    ``enabled`` decides whether testbed builders create live tracers;
    ``systems`` collects ``(name, tracer, registry)`` for every system built
    while enabled, so the report CLI can render runs whose testbeds are
    constructed deep inside an experiment module.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.systems: list[tuple[str, object, object]] = []
        self._by_name: dict[str, tuple[object, object]] = {}

    def register(self, name: str, tracer, registry) -> str:
        """Record a built system under ``name``.

        Cluster builds register one entry per node endpoint ("dpc", "dpc1",
        …).  Rebuilding a system with a name already taken (e.g. two
        single-host testbeds in one experiment) gets a versioned name —
        ``"dpc@2"``, ``"dpc@3"`` — so report output never silently merges
        two runs.  Returns the name actually used.
        """
        if not self.enabled:
            return name
        final = name
        version = 2
        while final in self._by_name:
            final = f"{name}@{version}"
            version += 1
        self._by_name[final] = (tracer, registry)
        self.systems.append((final, tracer, registry))
        return final

    def tracers(self):
        return [t for _, t, _ in self.systems if getattr(t, "enabled", False)]


_context = ObsvContext(enabled=bool(int(os.environ.get("REPRO_TRACE", "0") or 0)))


def get_context() -> ObsvContext:
    return _context


def enable_tracing() -> ObsvContext:
    """Turn tracing on for every system built from now on; returns a fresh
    context so earlier systems don't leak into the next report."""
    global _context
    _context = ObsvContext(enabled=True)
    return _context


def disable_tracing() -> None:
    global _context
    _context = ObsvContext(enabled=False)
