"""Bench: Figure 9 — DFS with NFS / NFS+opt-client / NFS+DPC."""

from repro.experiments import sweep
from repro.experiments.fig9_dfs import CASES, SWEEP


def test_fig9_dfs(swept, bench_json):
    by_label = swept(SWEEP)
    for metric, value in sweep.metrics(SWEEP, list(by_label.values())).items():
        bench_json("fig9", metric, value)

    def v(case, client):
        return by_label[f"{case}/{client}"]["value"]

    def cores(case, client):
        return by_label[f"{case}/{client}"]["host_cores"]

    # Optimized host client: ~4-5x the standard NFS IOPS ...
    for case in ("rnd-rd", "rnd-wr"):
        assert v(case, "opt") / v(case, "std") > 3.0
    # ... at many-fold the CPU (6-15x band).
    for case in ("rnd-rd", "rnd-wr", "smallfile-rd", "create-wr"):
        ratio = cores(case, "opt") / max(cores(case, "std"), 1e-9)
        assert ratio > 2.5

    # DPC: comparable performance to the optimized client on every case.
    for case in CASES:
        assert v(case, "dpc") > 0.7 * v(case, "opt"), case

    # DPC beats the optimized client on random writes (paper: ~+40%).
    assert v("rnd-wr", "dpc") > 1.15 * v("rnd-wr", "opt")

    # DPC slashes host CPU by ~90% vs the optimized client on IOPS tests.
    for case in ("rnd-rd", "rnd-wr", "create-wr"):
        assert cores(case, "dpc") < 0.25 * cores(case, "opt")

    # DPC's host CPU is in the standard-NFS ballpark (paper: ~3.6 cores
    # vs 30 for opt), while delivering >4x standard-NFS performance.
    for case in ("rnd-rd", "rnd-wr"):
        assert cores(case, "dpc") < 6.0
        assert v(case, "dpc") / v(case, "std") > 4.0

    # Sequential bandwidth: opt/DPC beat NFS-through-the-MDS.
    for case in ("seq-rd", "seq-wr"):
        assert v(case, "opt") / v(case, "std") > 1.5
        assert v(case, "dpc") / v(case, "std") > 1.5
