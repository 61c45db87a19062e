"""The "where did the time go" report and its CLI.

Rollups are computed over the span trees rooted at client-track ``op``
spans.  Per-span **exclusive** time is its duration minus the durations of
its direct children; summed over a tree this telescopes to exactly the root
duration, so the per-layer totals reconcile with end-to-end latency by
construction (the report prints the residual; it should be ~0%).

CLI::

    PYTHONPATH=src python -m repro.obsv.report --experiment fig9 \
        --case rnd-wr --threads 2 --ops 4 \
        --trace-out results/trace.json --report-out results/obsv_report.txt

runs the chosen experiment small with tracing enabled, writes the Perfetto
trace, validates it against the Chrome trace-event schema, and renders the
text report.  Each ``--experiment`` calls one experiment's point function.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from ..core.topology import ROLE_DPC, node_endpoint
from ..experiments import (
    fault_ablation,
    fig2_dma,
    fig8_cache,
    fig9_dfs,
    hedge,
    kvflash,
    multidev,
    scaleout,
    slo,
)
from . import enable_tracing, get_context
from .export import validate_trace, write_trace_multi

__all__ = ["layer_breakdown", "render_report", "run_experiment", "main"]

TOP_N = 12


def layer_breakdown(tracer) -> dict:
    """Aggregate exclusive simulated time per track and per span name over
    the op-rooted trees.

    Returns ``{"ops", "e2e", "by_track", "by_name", "background"}`` where
    ``e2e`` is the summed duration of client-track roots, ``by_track`` /
    ``by_name`` map to summed exclusive seconds, and ``background`` is the
    same rollup for spans not reachable from any op root (flushers,
    prefetchers).
    """
    spans = tracer.spans
    by_id = {s.span_id: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        if s.parent_id is not None and s.parent_id in by_id:
            children.setdefault(s.parent_id, []).append(s)

    def exclusive(s) -> float:
        dur = (s.end if s.end is not None else s.start) - s.start
        return dur - sum(
            (c.end if c.end is not None else c.start) - c.start
            for c in children.get(s.span_id, ())
        )

    roots = [s for s in spans if s.parent_id is None or s.parent_id not in by_id]
    op_roots = [s for s in roots if s.track == "client"]
    reachable: set[int] = set()
    stack = [s.span_id for s in op_roots]
    while stack:
        sid = stack.pop()
        if sid in reachable:
            continue
        reachable.add(sid)
        stack.extend(c.span_id for c in children.get(sid, ()))

    by_track: dict[str, float] = {}
    by_name: dict[tuple[str, str], float] = {}
    counts: dict[tuple[str, str], int] = {}
    background: dict[str, float] = {}
    for s in spans:
        ex = exclusive(s)
        if s.span_id in reachable:
            by_track[s.track] = by_track.get(s.track, 0.0) + ex
            key = (s.track, s.name)
            by_name[key] = by_name.get(key, 0.0) + ex
            counts[key] = counts.get(key, 0) + 1
        else:
            background[s.track] = background.get(s.track, 0.0) + ex

    e2e = sum((s.end if s.end is not None else s.start) - s.start for s in op_roots)
    return {
        "ops": len(op_roots),
        "e2e": e2e,
        "by_track": by_track,
        "by_name": by_name,
        "counts": counts,
        "background": background,
    }


def _fmt_s(sec: float) -> str:
    return f"{sec * 1e6:10.1f}us"


def render_report(systems, title: str = "flight recorder") -> str:
    """Text report over ``(name, tracer, registry)`` triples."""
    lines = [f"=== {title}: where did the simulated time go ==="]
    for name, tracer, registry in systems:
        lines.append(f"\n--- system: {name} ---")
        snap = registry.snapshot() if registry is not None else {}

        if getattr(tracer, "enabled", False) and tracer.spans:
            bd = layer_breakdown(tracer)
            total = sum(bd["by_track"].values())
            lines.append(
                f"client ops traced: {bd['ops']}   "
                f"end-to-end simulated time: {bd['e2e'] * 1e6:.1f}us"
            )
            resid = (total - bd["e2e"]) / bd["e2e"] * 100 if bd["e2e"] else 0.0
            lines.append(
                f"per-layer exclusive total: {total * 1e6:.1f}us "
                f"(residual vs e2e: {resid:+.3f}%)"
            )
            lines.append("per-layer breakdown (exclusive simulated time):")
            for track, sec in sorted(bd["by_track"].items(), key=lambda kv: -kv[1]):
                pct = sec / bd["e2e"] * 100 if bd["e2e"] else 0.0
                lines.append(f"  {track:<10} {_fmt_s(sec)}  {pct:5.1f}%")
            if any(sec < 0 for sec in bd["by_track"].values()):
                lines.append(
                    "  (a layer >100% ran work in parallel; its parent layer"
                    " goes negative by the overlap — the totals still"
                    " telescope to e2e)"
                )
            lines.append(f"top spans by exclusive time (top {TOP_N}):")
            top = sorted(bd["by_name"].items(), key=lambda kv: -kv[1])[:TOP_N]
            for (track, sname), sec in top:
                n = bd["counts"][(track, sname)]
                lines.append(
                    f"  {track + '/' + sname:<28} {_fmt_s(sec)}  "
                    f"x{n}  ({sec / n * 1e6:.2f}us each)"
                )
            if bd["background"]:
                bg = ", ".join(
                    f"{t}={sec * 1e6:.1f}us"
                    for t, sec in sorted(bd["background"].items())
                )
                lines.append(f"background (not attributed to ops): {bg}")
            if tracer.instants:
                by_kind: dict[str, int] = {}
                for _, iname, track, _ in tracer.instants:
                    by_kind[f"{track}/{iname}"] = by_kind.get(f"{track}/{iname}", 0) + 1
                lines.append(
                    "instant events: "
                    + ", ".join(f"{k}={v}" for k, v in sorted(by_kind.items()))
                )

        cpu_keys = [k for k in snap if k.startswith("cpu.") and k.endswith(".busy")]
        if cpu_keys:
            lines.append("simulated CPU busy attribution:")
            for k in cpu_keys:
                pool = k.split(".")[1]
                cores = snap.get(f"cpu.{pool}.cores", 0)
                win = snap.get(f"cpu.{pool}.window_cores", 0.0)
                lines.append(
                    f"  {pool:<6} busy={snap[k] * 1e6:.1f}us  "
                    f"window_cores={win:.2f}/{int(cores)}"
                )
                tags = sorted(
                    (kk for kk in snap if kk.startswith(f"cpu.{pool}.busy.")),
                    key=lambda kk: -snap[kk],
                )[:6]
                for kk in tags:
                    lines.append(
                        f"      {kk.removeprefix(f'cpu.{pool}.busy.'):<18}"
                        f"{snap[kk] * 1e6:10.1f}us"
                    )

        if snap:
            lines.append(f"metrics snapshot ({len(snap)} series, selected):")
            for prefix in ("pcie.ops", "pcie.doorbells", "pcie.interrupts",
                           "cache.read_hits", "cache.read_misses", "cache.hit_rate",
                           "cache.write_lock_retries", "kv.engine.puts", "kv.engine.gets",
                           "dfs.ops", "dfs.retries", "fault.events"):
                if prefix in snap:
                    v = snap[prefix]
                    lines.append(f"  {prefix:<20} {v:.4g}" if isinstance(v, float)
                                 else f"  {prefix:<20} {v}")
            req_keys = sorted(k for k in snap if k.startswith("req."))
            if req_keys:
                lines.append("request engine (per destination endpoint):")
                for k in req_keys:
                    v = snap[k]
                    lines.append(f"  {k:<28} {v:.4g}" if isinstance(v, float)
                                 else f"  {k:<28} {v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _fig2(case, **size):
    fig2_dma.count_dmas("nvme-fs", "write", 8192)
    fig2_dma.count_dmas("virtio-fs", "write", 8192)


#: ``--experiment`` name -> ``run(case, nthreads=..., ops_per_thread=...)``
EXPERIMENTS = {
    "fig2": _fig2,
    "fig8": lambda case, **size: [
        fig8_cache.random_write_point(**kw, **size) for kw in fig8_cache.WRITES.points
    ],
    "fig9": lambda case, **size: fig9_dfs.run_case(
        node_endpoint(ROLE_DPC, 0), case or "rnd-wr", **size
    ),
    "fault_ablation": lambda case, **size: fault_ablation.run_variant("degraded", **size),
    "scaleout": lambda case, **size: scaleout.run_point(2, **size),
    "kvflash": lambda case, **size: kvflash.run_elastic_point(2, elastic=True, **size),
    "multidev": lambda case, **size: multidev.run_point("4k_randread", 2, **size),
    "slo": lambda case, **size: slo.run_variant("degraded", **size),
    "hedge": lambda case, **size: hedge.run_point("full", True, **size),
}


def run_experiment(experiment: str, case: Optional[str], threads: int, ops: int):
    """Run one small experiment with tracing enabled; return the context."""
    if experiment not in EXPERIMENTS:
        raise SystemExit(f"unknown experiment {experiment!r}")
    ctx = enable_tracing()
    EXPERIMENTS[experiment](case, nthreads=threads, ops_per_thread=ops)
    return ctx


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.obsv.report",
        description="Run a small traced experiment and render the flight-recorder report.",
    )
    ap.add_argument("--experiment", default="fig9", choices=sorted(EXPERIMENTS))
    ap.add_argument("--case", default=None, help="fig9 workload case (e.g. rnd-wr)")
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--ops", type=int, default=4)
    ap.add_argument("--trace-out", default=None, help="write Perfetto trace.json here")
    ap.add_argument("--report-out", default=None, help="write the text report here")
    args = ap.parse_args(argv)

    run_experiment(args.experiment, args.case, args.threads, args.ops)
    ctx = get_context()
    if not ctx.systems:
        print("no systems were built while tracing was enabled", file=sys.stderr)
        return 1

    report = render_report(ctx.systems, title=args.experiment)
    for out in (args.trace_out, args.report_out):
        if out and os.path.dirname(out):
            os.makedirs(os.path.dirname(out), exist_ok=True)
    if args.trace_out:
        traced = [(n, t) for n, t, _ in ctx.systems if getattr(t, "enabled", False)]
        events = write_trace_multi(traced, args.trace_out)
        errs = validate_trace(events)
        reread = json.load(open(args.trace_out))
        errs += validate_trace(reread)
        n_spans = sum(len(t.spans) for _, t in traced)
        if errs:
            print(f"trace validation FAILED ({len(errs)} violations):", file=sys.stderr)
            for e in errs[:20]:
                print(f"  {e}", file=sys.stderr)
            return 2
        print(f"wrote {args.trace_out}: {n_spans} spans across "
              f"{len(traced)} system(s), schema valid")
    if args.report_out:
        with open(args.report_out, "w") as f:
            f.write(report)
        print(f"wrote {args.report_out}")
    print(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
