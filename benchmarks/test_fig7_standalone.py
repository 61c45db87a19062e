"""Bench: Figure 7 — standalone file service, local Ext4 vs KVFS."""

from repro.experiments.fig7_standalone import SWEEP


def test_fig7_standalone(swept):
    by_label = swept(SWEEP)

    def d(fs, rw, n):
        return by_label[f"{fs}/{rw}/t{n}"]

    # Low concurrency: KVFS loses to Ext4 (host-DPU interaction overheads).
    for rw in ("read", "write"):
        assert d("kvfs", rw, 1)["lat_us"] > d("ext4", rw, 1)["lat_us"]
        assert d("kvfs", rw, 32)["iops"] <= d("ext4", rw, 32)["iops"] * 1.1

    # Beyond 64 threads KVFS wins both IOPS and latency.
    for rw in ("read", "write"):
        assert d("kvfs", rw, 64)["iops"] > d("ext4", rw, 64)["iops"]
        assert d("kvfs", rw, 256)["iops"] > d("ext4", rw, 256)["iops"]
        assert d("kvfs", rw, 256)["lat_us"] < d("ext4", rw, 256)["lat_us"]

    # Ext4 hits the single SSD's limit past 32 threads and stops scaling.
    for rw in ("read", "write"):
        assert d("ext4", rw, 256)["iops"] < d("ext4", rw, 32)["iops"] * 1.15

    # Host CPU: Ext4 exceeds ~85% at 256 threads; KVFS stays under 20%.
    assert d("ext4", "write", 256)["host_cpu_pct"] > 85
    assert d("ext4", "read", 256)["host_cpu_pct"] > 75
    for rw in ("read", "write"):
        for n in (1, 32, 64, 128, 256):
            assert d("kvfs", rw, n)["host_cpu_pct"] < 20

    # KVFS IOPS stops scaling once the DPU CPU saturates (~128 threads).
    assert d("kvfs", "write", 128)["dpu_cpu_pct"] > 80
    assert d("kvfs", "write", 256)["iops"] < d("kvfs", "write", 128)["iops"] * 1.25

    # Latency at 256 threads lands in the paper's order of magnitude
    # (Ext4 779/1009us; KVFS 363/410us).
    assert 300 < d("kvfs", "read", 256)["lat_us"] < 900
    assert 300 < d("kvfs", "write", 256)["lat_us"] < 900
    assert d("ext4", "read", 256)["lat_us"] > 600
