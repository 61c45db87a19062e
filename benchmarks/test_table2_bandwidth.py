"""Bench: Table 2 — sequential bandwidth, local Ext4 vs KVFS."""

from repro.experiments.table2_bandwidth import RWS, SWEEP, THREADS


def test_table2_bandwidth(swept):
    d = {label: p["GBs"] for label, p in swept(SWEEP).items()}

    # KVFS outperforms Ext4 in every cell (the paper's claim).
    for n in THREADS:
        for rw in RWS:
            key = f"{rw}/t{n}"
            assert d[f"kvfs/{key}"] > d[f"ext4/{key}"], f"KVFS must beat Ext4 for {key}"

    # Ext4 is capped by the single SSD (~3.2 GB/s).
    assert d["ext4/read/t32"] < 3.4
    assert d["ext4/write/t32"] < 3.4

    # KVFS at 32 threads approaches the disaggregated store's limits
    # (paper: 7.6 read / 5.0 write GB/s).
    assert d["kvfs/read/t32"] > 6.0
    assert d["kvfs/write/t32"] > 4.0

    # Scaling from 1 to 32 threads helps both systems.
    assert d["kvfs/read/t32"] > d["kvfs/read/t1"]
    assert d["ext4/read/t32"] > d["ext4/read/t1"]
