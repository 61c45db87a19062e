"""SLO burn-rate sweep over the fault-ablation schedules.

Runs the fault ablation's scripted failure scenarios (healthy /
no-recovery / degraded / full — see :mod:`repro.experiments.fault_ablation`)
with the streaming sketch hub enabled and an :class:`~repro.obsv.slo.SloEngine`
tapped into it.  Per variant the sweep reports the read SLO's multi-window
burn rate, remaining error budget, breach count, and the *attributed
bottleneck* — the layer whose cumulative sketch time grew the most across
the breaching evaluation windows.

Expected shape: ``healthy`` stays within budget (bottleneck attribution
idle) and ``no-recovery`` does too — its reads *fail fast* with EHOSTDOWN,
so availability drops but the latency SLO never fires (exactly why an
availability SLO would be paired with this one).  ``degraded`` and ``full``
burn hot and attribute to the data-server layer: reconstruction reads the
survivor units over ``ds.rpc``, and the silent-crash variant's RPC
deadline waits accrue inside the same layer.

Declared as a :class:`~repro.experiments.sweep.Sweep`::

    python -m repro.experiments slo
"""

from __future__ import annotations

from typing import Optional

from ..obsv.slo import SloEngine, SloSpec, sketch_layer_sources
from ..params import SystemParams, default_params
from .fault_ablation import VARIANTS, _run_variant
from .sweep import Column, Sweep

__all__ = ["run_variant", "LAYERS", "DEFAULT_SPEC", "SWEEP"]

#: bottleneck-attribution layers over the host-DFS testbed's sketch names;
#: each is (include_totals, exclude_totals) — include minus exclude
#: telescopes out the nested layer, mirroring the flight recorder's
#: exclusive-time rollup.
LAYERS = {
    "client-retry": (("client.read",), ("stripe.read", "stripe.write", "mds.rpc")),
    "ec-reconstruct": (("stripe.read", "stripe.write"), ("ds.rpc",)),
    "dataserver": (("ds.rpc",), ("net.send",)),
    "mds": (("mds.rpc",), ()),
    "network": (("net.send",), ()),
}

#: the read objective: p95 of 8K random DFS reads under 80us.  The healthy
#: baseline's p99 sits around 60us, so a healthy run keeps the bad fraction
#: near zero while every fault variant pushes reads past the threshold.
DEFAULT_SPEC = SloSpec(
    name="read",
    endpoint="client.read",
    threshold_us=80.0,
    target_quantile=0.95,
    windows=(200e-6, 1e-3),
)


def run_variant(
    variant: str,
    params: Optional[SystemParams] = None,
    nthreads: int = 8,
    ops_per_thread: int = 25,
    spec: SloSpec = DEFAULT_SPEC,
) -> dict:
    """One fault schedule with the SLO engine attached; returns the merged
    availability + burn-rate record."""
    p = (params or default_params()).with_overrides(obsv_sketches=True)
    attached: dict = {}

    def hook(_variant: str, tb) -> None:
        hub = tb.sketches
        engine = SloEngine(
            [spec],
            now_fn=lambda: tb.env.now,
            eval_interval=50e-6,
            sources=sketch_layer_sources(hub, LAYERS),
        )
        engine.connect(hub)
        tb.registry.collect(engine.collect)
        attached["engine"] = engine
        attached["tb"] = tb

    row = _run_variant(variant, p, nthreads, ops_per_thread, on_testbed=hook)
    engine, tb = attached["engine"], attached["tb"]
    engine.finish(tb.env.now)
    s = engine.summary()[spec.name]
    return {
        "label": variant,
        "availability": row[1],
        "p50_us": row[2],
        "p99_us": row[3],
        "observations": s["observations"],
        "bad": s["bad"],
        "burn_rate": s["burn_rate"],
        "max_burn_rate": s["max_burn_rate"],
        "budget_remaining": s["budget_remaining"],
        "breaches": s["breaches"],
        "bottleneck": s["bottleneck"],
        "sketch_p99_us": round(tb.sketches.quantile(spec.endpoint, 0.99) * 1e6, 2),
    }


SWEEP = Sweep(
    name="slo",
    title="SLO burn rates under the fault ablation (read p95 < "
    f"{DEFAULT_SPEC.threshold_us:.0f}us)",
    point=run_variant,
    points=tuple({"variant": v} for v in VARIANTS),
    columns=(
        Column("label", "variant", written=False),
        Column("availability", "availability", 4),
        Column("p99_us", "p99_us", 2),
        Column("sketch_p99_us", "sketch_p99_us"),
        Column("burn_rate"),
        Column("max_burn_rate", "max_burn"),
        Column("budget_remaining", "budget_rem"),
        Column("breaches", "breaches"),
        Column("bottleneck", "bottleneck"),
    ),
    notes=(
        "burn rate = (bad fraction)/(error budget) per window; a breach"
        " needs every window hot, and names the layer whose sketch time"
        " grew most that interval",
    ),
)
