"""Bench: multi-client scale-out — aggregate throughput vs cluster size.

Asserts the shape claims: aggregate IOPS grows monotonically from one to
four DPC clients against the shared backend, per-op latency stays sane,
and the sweep records a saturation point.  Results land in
``results/BENCH_scaleout.json``.
"""

from repro.experiments import sweep
from repro.experiments.scaleout import SWEEP


def test_scaleout_sweep(once, bench_json):
    points = once(sweep.run, SWEEP, reduced=True)
    print()
    print(sweep.table(SWEEP, points).render())
    by_n = {p["n_hosts"]: p for p in points}
    for metric, value in sweep.metrics(SWEEP, points).items():
        bench_json("scaleout", metric, value)

    # No ops may fail on any cluster size.
    assert all(p["errors"] == 0 for p in points)

    # Aggregate throughput grows monotonically 1 -> 2 -> 4 clients ...
    assert by_n[2]["aggregate_iops"] > by_n[1]["aggregate_iops"]
    assert by_n[4]["aggregate_iops"] > by_n[2]["aggregate_iops"]
    # ... and each doubling buys a real improvement (>1.4x) while the
    # shared backend has headroom.
    assert by_n[2]["aggregate_iops"] > 1.4 * by_n[1]["aggregate_iops"]
    assert by_n[4]["aggregate_iops"] > 1.4 * by_n[2]["aggregate_iops"]

    # Every node contributes: per-node rates are within 2x of each other.
    for p in points:
        rates = p["per_node_iops"]
        assert max(rates) < 2.0 * min(rates)

    # Median latency must not blow up with cluster size (shared-backend
    # queueing shows in the tail first).
    assert by_n[4]["lat_p50_us"] < 3.0 * by_n[1]["lat_p50_us"]
