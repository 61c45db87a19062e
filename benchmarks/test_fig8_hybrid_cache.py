"""Bench: Figure 8 — hybrid-cache contribution to random/sequential IOPS."""

from repro.experiments.fig8_cache import PREFETCH, WRITES


def test_fig8_random_writes(swept):
    d = {label: p["iops"] for label, p in swept(WRITES).items()}
    # Both caches lift random-write IOPS well above the direct path.
    assert d["write/ext4/buffered"] / d["write/ext4/direct"] > 1.5
    assert d["write/kvfs/buffered"] / d["write/kvfs/direct"] > 2.0


def test_fig8_sequential_read_prefetch(swept):
    boost = PREFETCH.derived(list(swept(PREFETCH).values()))
    # Single-thread: the DPU prefetcher delivers an order-of-magnitude-plus
    # boost (paper: ~100x; simulator: tens of x — see EXPERIMENTS.md).
    assert boost["read/t1/boost"] > 15
    # 32 threads: a modest boost remains (paper: ~3x).
    assert boost["read/t32/boost"] > 1.3
    # The single-thread boost dwarfs the 32-thread one.
    assert boost["read/t1/boost"] > 4 * boost["read/t32/boost"]
