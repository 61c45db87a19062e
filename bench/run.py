#!/usr/bin/env python3
"""The repo benchmark: one command, four workloads, two clocks.

    python3 bench/run.py [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
                         [--scale F] [--check-repeat]

Every workload runs in its own fresh subprocess (``PYTHONHASHSEED=0``),
strictly one at a time.  The untraced pass gives the end-to-end metrics; with
``--trace`` a second pass replays the identical inputs under the wrappers of
``bench/spans.py`` and gives the per-layer metrics.  Every metric is printed
by name with its unit; the last line of standard output is one JSON object
(the driver contract, see ``BENCHMARK.json``).  Results also go to
``bench/out/``.  ``bench/README.md`` has the measurement rules.
"""

from __future__ import annotations

import time

_T0 = time.time()  # a child's set-up clock starts before its imports

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3


# -- child: one workload, in this process ------------------------------------------------


def child(args: argparse.Namespace) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import metrics
    import workloads
    from repro.obsv.metrics import Registry

    tracer = None
    if args.trace:
        import spans

        # class-level wrappers must exist before build_cluster binds methods
        tracer = spans.install()
    w = workloads.WORKLOADS[args.workload]
    run = workloads.Run(w, args.seed, args.seconds, args.scale)
    if tracer:
        tracer.attach(run)
    run.prepare()
    warm = run.run_phase(measured=False)
    setup_s = time.time() - args.t0
    out = {"workload": w.name, "seed": args.seed, "setup_s": setup_s}
    if args.setup_only:
        return out
    run.corrupt_next_read = args.corrupt_read
    before = metrics.snapshot(run.cluster)
    phase = run.run_phase(measured=True)
    d = Registry.delta(metrics.snapshot(run.cluster), before)
    sweep = run.sweep()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.update(
        calls=run.plan.n_calls(),
        attempted=phase.attempted,
        failed=len(phase.failures),
        failures=sorted(set(phase.failures)),
        wrong_bytes=sum(1 for _k, why in phase.failures if why == "wrong-bytes"),
        warmup_failures=sorted(set(warm.failures)),
        sweep_files=sweep.attempted,
        sweep_failures=sweep.failures,
        samples={k: len(v) for k, v in phase.lat.items()},
        fault_log=run.fault_log,
        host_cpu_s=phase.host_cpu_s,
        events=phase.events,
        end_to_end=metrics.end_to_end(phase, d, rss_mb, setup_s),
    )
    if tracer:
        out["per_layer"] = {**metrics.counter_metrics(phase, d), **tracer.metrics(phase)}
        out["trace"] = tracer.summary()
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"{w.name}.spans.json")
    return out


# -- parent: orchestration -----------------------------------------------------------------


def spawn(workload: str, seed: int, seconds: float, scale: float, *flags: str) -> dict:
    """Run one child to completion and return the object it printed last."""
    cmd = [
        sys.executable,
        str(BENCH / "run.py"),
        "--child",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--scale", str(scale),
        "--t0", repr(time.time()),
        *flags,
    ]  # fmt: skip
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"bench child failed ({proc.returncode}): {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _sim(e2e: dict) -> dict:
    return {k: v for k, v in e2e.items() if k.startswith("sim_")}


def _unverified(res: dict) -> bool:
    return bool(res["wrong_bytes"] or res["warmup_failures"] or res["sweep_failures"])


def run_workload(
    workload: str, seed: int, seconds: float, scale: float, trace: bool, setups: int = SETUPS
) -> dict:
    """Untraced pass (with ``setups`` set-ups in all), then the traced pass."""
    extra = [
        spawn(workload, seed, seconds, scale, "--setup-only")["setup_s"]
        for _ in range(setups - 1)
    ]
    res = spawn(workload, seed, seconds, scale)
    res["setup_samples"] = extra + [res["setup_s"]]
    res["end_to_end"]["setup_s"] = statistics.median(res["setup_samples"])
    problems = ["verification failed"] if _unverified(res) else []
    if trace:
        traced = spawn(workload, seed, seconds, scale, "--trace", "1")
        if _unverified(traced):
            problems.append("verification failed in the traced pass")
        if _sim(traced["end_to_end"]) != _sim(res["end_to_end"]):
            problems.append("the traced pass moved a simulated number")
        layer = traced["per_layer"]
        layer["bench.trace_overhead_frac"] = traced["host_cpu_s"] / res["host_cpu_s"] - 1.0
        layer["sim.core.host_ns_per_event"] = res["host_cpu_s"] * 1e9 / res["events"]
        res["per_layer"] = layer
        res["trace"] = traced["trace"]
    res["problems"] = problems
    return res


def units() -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def show(res: dict) -> None:
    """Every metric by name, with its unit; percentiles with their sample count."""
    unit = units()
    count = {**res["samples"], "op": sum(res["samples"].values())}
    print(f"== {res['workload']}  seed={res['seed']}  calls={res['calls']}"
          f"  measured={res['attempted']}  failed={res['failed']}"
          f"  sweep={res['sweep_files']} files  faults={res['fault_log']}")  # fmt: skip
    for name, value in res["end_to_end"].items():
        pct = re.fullmatch(r"sim_(read|write|meta|op)_p\d+_us", name)
        note = f"  (n={count[pct[1]]})" if pct else ""
        print(f"  {name:44s} {value:16.6g} {unit[name]}{note}")
    for name, value in sorted(res.get("per_layer", {}).items()):
        print(f"  {name:44s} {value:16.6g} {unit[name]}")
    for p in res["problems"] + [str(f) for f in res["sweep_failures"][:5]]:
        print(f"  !! {p}")


def ledger_entry(results: list[dict], seed: int, seconds: float, scale: float) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.experiments.bench import git_sha

    return {
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "units": units(),
        "workloads": {
            r["workload"]: {
                "calls": r["calls"],
                "measured_ops": r["attempted"],
                "failed": r["failed"],
                "n": r["samples"],
                "setup_samples": r["setup_samples"],
                "end_to_end": r["end_to_end"],
                "per_layer": r.get("per_layer", {}),
            }
            for r in results
        },
    }


def check_repeat(names: list[str], seed: int, seconds: float, scale: float) -> int:
    """Run everything twice: simulated numbers must repeat exactly (also under
    tracing), host numbers within their bound."""
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    worse_if = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    bad = 0
    for name in names:
        a = run_workload(name, seed, seconds, scale, trace=True)
        b = run_workload(name, seed, seconds, scale, trace=False)
        print(f"== {name}: run 2 against run 1")
        bad += len(a["problems"]) + len(b["problems"]) + a["failed"] + b["failed"]
        for p in a["problems"] + b["problems"]:
            print(f"  !! {p}")
        for metric, va in a["end_to_end"].items():
            vb = b["end_to_end"][metric]
            rel = (vb - va) / va if va else 0.0
            if metric.startswith("sim_"):
                ok, limit = va == vb, "exact"
            else:
                worse = -rel if worse_if[metric] == "higher" else rel
                ok, limit = abs(worse) <= bound[metric], f"{bound[metric]:.0%}"
            bad += not ok
            print(f"  {metric:28s} {va:14.6g} {vb:14.6g} {rel:+9.2%}  bound {limit:>5s}"
                  f"  {'ok' if ok else 'FAIL'}")  # fmt: skip
    print("check-repeat:", "FAILED" if bad else "passed")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all four")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="sizes the op count (a fixed constant per second), not a timer")  # fmt: skip
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    ap.add_argument("--scale", type=float, default=1.0, help="multiplies the op count")
    ap.add_argument("--check-repeat", action="store_true")
    for hidden in ("--child", "--setup-only", "--corrupt-read"):
        ap.add_argument(hidden, action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, default=_T0, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(child(args)))
        return 0
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    if args.check_repeat:
        return check_repeat(names, args.seed, args.seconds, args.scale)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.scale, bool(args.trace))
        show(res)
        results.append(res)
    OUT.mkdir(exist_ok=True)
    entry = ledger_entry(results, args.seed, args.seconds, args.scale)
    target = OUT / (f"{args.workload}.json" if args.workload else "all.json")
    target.write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n")
    print(f"wrote {target.relative_to(ROOT)}")
    if args.workload:
        # The driver's line: end-to-end metrics untraced, per-layer metrics traced.
        (res,) = results
        reported = res["per_layer"] if args.trace else res["end_to_end"]
        unit = units()
        print(json.dumps({
            "correct": not res["problems"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": unit[k]} for k, v in reported.items()},
        }))  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
