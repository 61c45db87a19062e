"""Bench: Figure 2(b)/Figure 4 — DMA operations per request."""

from repro.experiments.fig2_dma import SWEEP


def test_fig2_dma_count(swept):
    d = swept(SWEEP)
    # The paper's headline counts, exactly.
    assert d["virtio-fs/write/8192"]["ops"] == 11
    assert d["virtio-fs/read/8192"]["ops"] == 11
    assert d["nvme-fs/write/8192"]["ops"] == 4
    assert d["nvme-fs/read/8192"]["ops"] == 4
    # An isolated nvme-fs op also costs exactly one doorbell MMIO and one
    # completion interrupt: coalescing must not defer the idle-queue path.
    for rw in ("write", "read"):
        for size in (4096, 8192, 65536):
            p = d[f"nvme-fs/{rw}/{size}"]
            assert p["doorbells"] == 1, (rw, size, p["doorbells"])
            assert p["interrupts"] == 1, (rw, size, p["interrupts"])
    # nvme-fs stays flat with size; virtio-fs never gets close.
    for size in (4096, 8192, 65536):
        assert d[f"nvme-fs/write/{size}"]["ops"] == 4
        assert (
            d[f"virtio-fs/write/{size}"]["ops"]
            >= 2 * d[f"nvme-fs/write/{size}"]["ops"]
        )
