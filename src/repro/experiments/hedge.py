"""Hedged-request ablation over the fault schedules.

Re-runs the fault ablation's ``healthy`` and ``full`` scenarios (silent
data-server crash + lossy fabric — see
:mod:`repro.experiments.fault_ablation`) with the unified request engine's
hedging + adaptive-retry policies toggled, and reports what hedging buys on
the tail:

* ``healthy/off`` — the no-fault baseline p50/p99 and goodput.
* ``full/off`` — the crash scenario on the plain retry path: reads that
  land on the silent server burn the full RPC deadline (plus backoff)
  before falling back, so p99 blows out by ~50x.
* ``full/hedged`` — same schedule with ``req_hedging`` +
  ``req_adaptive_retry`` on (sketches feed the hedge delay): a read stuck
  past the live p99 issues a tied hedge — for stripe units, an EC-degraded
  reconstruction from the survivors — and the first answer wins while the
  loser is cancelled on the wire.

The headline metrics are the p99 ratios of the two ``full`` points against
``healthy``, the hedge win rate, and the extra-attempt fraction (hedges
issued per primary attempt — the bandwidth price of the tail cut).

Declared as a :class:`~repro.experiments.sweep.Sweep`::

    python -m repro.experiments hedge
"""

from __future__ import annotations

from typing import Optional

from ..params import SystemParams, default_params
from .fault_ablation import run_variant
from .sweep import Column, Sweep

__all__ = ["run_point", "SWEEP"]

#: request-engine counters summed across endpoints per point
_REQ_STATS = ("attempts", "hedges", "hedge_wins", "cancels", "budget_exhausted")


def run_point(
    variant: str,
    hedged: bool,
    params: Optional[SystemParams] = None,
    nthreads: int = 8,
    ops_per_thread: int = 25,
) -> dict:
    """One fault schedule with the request-engine policies set; returns the
    availability/latency row merged with the summed ``req.*`` counters."""
    p = params or default_params()
    if hedged:
        # Hedging needs the live quantiles: the sketch hub feeds the
        # per-endpoint hedge delay and the adaptive attempt deadline.
        p = p.with_overrides(
            obsv_sketches=True, req_hedging=True, req_adaptive_retry=True
        )
    attached: dict = {}

    def hook(_variant: str, tb) -> None:
        attached["tb"] = tb

    row = run_variant(variant, p, nthreads, ops_per_thread, on_testbed=hook)
    snap = attached["tb"].registry.snapshot()
    req = {k: 0.0 for k in _REQ_STATS}
    for key, v in snap.items():
        if key.startswith("req."):
            stat = key.rsplit(".", 1)[1]
            if stat in req:
                req[stat] += v
    primaries = max(1.0, req["attempts"] - req["hedges"])
    return {
        **row,
        "label": f"{variant}-{'hedged' if hedged else 'off'}",
        "variant": variant,
        "hedged": hedged,
        **req,
        "win_rate": req["hedge_wins"] / req["hedges"] if req["hedges"] else 0.0,
        "extra_attempt_frac": req["hedges"] / primaries,
    }


def _p99_vs_healthy(points: list[dict]) -> dict:
    healthy = next((p for p in points if p["label"] == "healthy-off"), None)
    if not healthy or healthy["p99_us"] <= 0:
        return {}
    return {
        f"{p['label']}/p99_vs_healthy": round(p["p99_us"] / healthy["p99_us"], 2)
        for p in points
        if p["variant"] != "healthy"
    }


SWEEP = Sweep(
    name="hedge",
    title="Hedged requests under the fault ablation (8K random DFS reads,"
    " silent crash + lossy fabric)",
    point=run_point,
    points=(
        {"variant": "healthy", "hedged": False},
        {"variant": "full", "hedged": False},
        {"variant": "full", "hedged": True},
    ),
    columns=(
        Column("label", "point", written=False),
        Column("availability", "availability", 4),
        Column("p50_us", "p50_us", 2),
        Column("p99_us", "p99_us", 2),
        Column("goodput_iops", "goodput_iops", 1),
        Column("retries", "retries"),
        Column("hedges", "hedges"),
        Column("hedge_wins", "hedge_wins"),
        Column("cancels", "cancels"),
        Column("win_rate", ndigits=4),
        Column("extra_attempt_frac", "extra_att", 4),
    ),
    derived=_p99_vs_healthy,
    notes=(
        "a hedge fires when an attempt outlives the endpoint's live p99;"
        " the loser is cancelled on the wire (tied requests)",
    ),
)
