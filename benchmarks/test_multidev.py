"""Bench: multi-NVMe striped data plane — devices-per-node sweep.

Asserts the shape claims: a single SSD is the bottleneck at one device,
striping multiplies throughput (>= 2x 4 KiB random-read IOPS at four
devices), and the bottleneck moves off the SSD — to the DPU cores for
the IOPS-bound workload and to the PCIe link for the bandwidth-bound
one.  Results land in ``results/BENCH_multidev.json``.
"""

from repro.experiments import sweep
from repro.experiments.multidev import SWEEP


def test_multidev_sweep(once, bench_json):
    # the full sweep's points (20 ops/thread) up to four devices
    todo = [kw for kw in SWEEP.points if kw["n_devices"] <= 4]
    points = once(lambda: [SWEEP.point(**kw) for kw in todo])
    print()
    print(sweep.table(SWEEP, points).render())
    by_key = {(p["workload"], p["n_devices"]): p for p in points}
    rr = {n: by_key[("4k_randread", n)] for n in (1, 2, 4)}
    sw = {n: by_key[("128k_seqwrite", n)] for n in (1, 2, 4)}
    for metric, value in sweep.metrics(SWEEP, points).items():
        bench_json("multidev", metric, value)

    # One device is SSD-bound in both workloads.
    assert rr[1]["bottleneck"] == "ssd"
    assert sw[1]["bottleneck"] == "ssd"
    assert rr[1]["ssd_util"] > 0.9

    # Random-read IOPS grows with the array and clears 2x at four devices.
    assert rr[2]["iops"] > rr[1]["iops"]
    assert rr[4]["iops"] > rr[2]["iops"]
    assert rr[4]["iops"] >= 2.0 * rr[1]["iops"]

    # Sequential-write bandwidth scales further (bandwidth-bound case).
    assert sw[2]["bandwidth_GBs"] > 1.5 * sw[1]["bandwidth_GBs"]
    assert sw[4]["bandwidth_GBs"] > 2.5 * sw[1]["bandwidth_GBs"]

    # At four devices the ceiling has moved off the SSDs: DPU cores for
    # the IOPS-bound workload, the PCIe link for the bandwidth-bound one.
    assert rr[4]["bottleneck"] == "dpu_cores"
    assert sw[4]["bottleneck"] == "pcie"
    assert rr[4]["ssd_util"] < 0.9
    assert sw[4]["ssd_util"] < 0.9

    # Striping spreads the load: every device in the 4-wide array serves
    # reads, and no device does more than 2x its fair share.
    reads = list(rr[4]["reads"].values())
    assert len(reads) == 4 and all(r > 0 for r in reads)
    assert max(reads) < 2.0 * (sum(reads) / len(reads))
