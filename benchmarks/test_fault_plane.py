"""Bench: fault ablation — availability and tail latency under failures."""

from repro.experiments import sweep
from repro.experiments.fault_ablation import SWEEP


def test_fault_ablation(swept, bench_json):
    d = swept(SWEEP)

    # Healthy baseline: every read succeeds, nothing degrades or retries.
    assert d["healthy"]["availability"] == 1.0
    assert d["healthy"]["degraded_stripes"] == 0
    assert d["healthy"]["errors"] == 0

    # Without recovery, losing a data server mid-run costs availability.
    assert d["no-recovery"]["availability"] < 1.0
    assert d["no-recovery"]["errors"] > 0

    # Degraded EC reads restore availability; reconstruction costs tail.
    assert d["degraded"]["availability"] == 1.0
    assert d["degraded"]["degraded_stripes"] > 0
    assert d["degraded"]["p99_us"] > d["healthy"]["p99_us"]

    # Silent crash + lossy fabric: timeouts/retries keep availability at 1,
    # at a much higher tail and lower goodput.
    assert d["full"]["availability"] == 1.0
    assert d["full"]["retries"] > 0
    assert d["full"]["p99_us"] > d["degraded"]["p99_us"]
    assert d["full"]["goodput_iops"] < d["healthy"]["goodput_iops"]

    for metric, value in sweep.metrics(SWEEP, list(d.values())).items():
        bench_json("fault", metric, value)
