"""Bench: ablations of DPC's design choices (not in the paper's eval)."""

from repro.experiments.ablations import DELEGATIONS, EC_GEOMETRY, PLACEMENT, QUEUES


def test_ablation_queue_count(swept):
    iops = {label: p["iops"] for label, p in swept(QUEUES).items()}
    # A single depth-1 queue serialises everything; queue depth alone buys
    # an order of magnitude, multi-queue adds headroom on top.
    assert iops["queues/q1-d128"] > 5 * iops["queues/q1-d1"]
    assert iops["queues/q32-d128"] >= iops["queues/q1-d128"] * 0.95


def test_ablation_cache_placement(swept):
    d = swept(PLACEMENT)
    hybrid, dpu = d["placement/hybrid"], d["placement/dpu"]
    # A hybrid hit is several times faster and moves no PCIe payload.
    assert hybrid["hit_lat_us"] < dpu["hit_lat_us"] / 2
    assert hybrid["pcie_dmas_per_hit"] == 0 and hybrid["pcie_bytes_per_hit"] == 0
    assert dpu["pcie_bytes_per_hit"] > 8192  # the 8K payload crosses PCIe every hit


def test_ablation_delegations(swept):
    d = swept(DELEGATIONS)
    on, off = d["delegations/on"], d["delegations/off"]
    # Delegated creates are faster and touch the MDS far less.
    assert on["creates_per_sec"] > 1.5 * off["creates_per_sec"]
    assert on["mds_ops"] < off["mds_ops"] / 2


def test_ablation_ec_geometry(swept):
    d = swept(EC_GEOMETRY)
    overheads = [p["storage_overhead"] for p in d.values()]
    # Wider geometries trade storage overhead for... storage overhead.
    assert overheads[0] > overheads[1] > overheads[2]
    # All geometries sustain six-figure random-write IOPS on this backend.
    assert all(p["iops"] > 5e4 for p in d.values())
