"""Bench: Figure 6 — raw host-DPU transmission, virtio-fs vs nvme-fs."""

from repro.experiments.fig6_raw import BANDWIDTH, IOPS


def test_fig6_iops_latency(swept):
    d = swept(IOPS)

    # Single-thread latency: tens of microseconds, nvme-fs lower (paper:
    # 20.6/26.6us vs 36.5/34us).
    for size in (4096, 8192):
        nv_lat = d[f"nvme-fs/read/{size}/t1"]["lat_us"]
        vi_lat = d[f"virtio-fs/read/{size}/t1"]["lat_us"]
        assert 10 < nv_lat < 35
        assert 25 < vi_lat < 60
        assert nv_lat < vi_lat

    # High-concurrency IOPS: nvme-fs wins by well over 2x (paper: 2-3x).
    for rw in ("read", "write"):
        nv = d[f"nvme-fs/{rw}/8192/t32"]["iops"]
        vi = d[f"virtio-fs/{rw}/8192/t32"]["iops"]
        assert nv / vi > 2.0

    # nvme-fs saturates by 32 threads (paper: peak at 32).
    nv32 = d["nvme-fs/read/8192/t32"]["iops"]
    nv64 = d["nvme-fs/read/8192/t64"]["iops"]
    assert nv64 < nv32 * 1.3


def test_fig6_bandwidth(swept):
    d = {label: p["GBs"] for label, p in swept(BANDWIDTH).items()}
    # nvme-fs approaches the PCIe 3.0 x16 ceiling (paper: 15.1/14.3 GB/s).
    assert d["nvme-fs/read/1048576/t16"] > 13.0
    assert d["nvme-fs/write/1048576/t16"] > 13.0
    # virtio-fs stalls around 5-7 GB/s (paper: 6.3/5.1 GB/s).
    assert 4.0 < d["virtio-fs/read/1048576/t16"] < 9.0
    assert 4.0 < d["virtio-fs/write/1048576/t16"] < 9.0
